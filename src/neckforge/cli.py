"""Command line front end for building and rechecking certificates.

Exit code 0 means every claim in the emitted or rechecked certificate
passed; 1 means at least one claim failed or came back inconclusive;
2 means the construction itself refused to run.  A plain key = value
config file can preset any long option, with explicit flags winning.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certificate import recheck_certificate
from .errors import NeckforgeError, ParameterOutOfRange
from .models import unit_sphere_volume
from .pipelines import (PipelineResult, attach_hemisphere,
                        attach_product_ingredient, hemisphere_standin,
                        round_sphere_ingredient, sphere_chain_certificate,
                        surgery_certificate, tunnel_certificate,
                        verify_volume_budget)

__all__ = ["main"]


def _read_config(path: str) -> dict:
    """key = value lines; '#' starts a comment; values stay strings."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"config line not key = value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _parser() -> tuple[argparse.ArgumentParser, dict]:
    top = argparse.ArgumentParser(
        prog="neckforge",
        description="curvature-controlled tunnels, surgeries and their "
                    "numerical certificates")
    top.add_argument("--config", metavar="FILE",
                     help="key = value defaults; explicit flags win")
    top.add_argument("--grid-density", type=float, default=1.0,
                     help="multiplier on curvature sampling resolution")
    top.add_argument("--tolerance", type=float, default=1e-9,
                     help="claim margin below this is inconclusive")
    sub = top.add_subparsers(dest="command", required=True)

    tun = sub.add_parser("build-tunnel",
                         help="tunnel inside one round model")
    tun.add_argument("--n", type=int, default=3, help="manifold dimension")
    tun.add_argument("--kappa", type=float, default=6.0,
                     help="ambient scalar curvature")
    tun.add_argument("--delta", type=float, default=0.1, help="tube radius")
    tun.add_argument("--length", type=float, default=2.0)
    tun.add_argument("--j", type=float, default=100.0,
                     help="curvature budget is 1/j")
    tun.add_argument("--out", metavar="CERT", default=None)
    tun.add_argument("--profiles-dir", metavar="DIR", default=None)

    sur = sub.add_parser("surgery",
                         help="codimension >= 3 surgery on a sphere product")
    sur.add_argument("--p", type=int, required=True, help="base dimension")
    sur.add_argument("--q", type=int, required=True, help="slice dimension")
    sur.add_argument("--delta", type=float, default=0.05,
                     help="tube radius and certified allowance")
    sur.add_argument("--body", metavar="RHO_P,RHO_Q", default="1,1",
                     help="radii of the two round factors")
    sur.add_argument("--out", metavar="CERT", default=None)
    sur.add_argument("--profiles-dir", metavar="DIR", default=None)

    pipe = sub.add_parser("pipeline", help="headline constructions")
    pipe.add_argument("name", choices=["main-a", "cor-d", "cor-t", "cor-v",
                                       "main-b-budget"])
    pipe.add_argument("--n", type=int, default=3, help="manifold dimension")
    pipe.add_argument("--d", type=float, default=None,
                      help="diameter target (default 10 for cor-d, else 0)")
    pipe.add_argument("--j", type=float, default=100.0,
                      help="main-a, cor-d, cor-t, cor-v: curvature budget "
                           "is 1/j per gluing")
    pipe.add_argument("--tube", type=float, default=None,
                      help="main-a, cor-d, cor-t, cor-v: tube radius "
                           "(default 0.05 for cor-t, else 0.1)")
    pipe.add_argument("--ingredient-radius", type=float, default=0.5,
                      help="main-a: radius of the round ingredient sphere")
    pipe.add_argument("--p", type=int, default=1, help="cor-t: base factor")
    pipe.add_argument("--q", type=int, default=2, help="cor-t: other factor")
    pipe.add_argument("--factor-radius", type=float, default=None,
                      help="cor-t: product factor radius before sweeping")
    pipe.add_argument("--volume", type=float, default=None,
                      help="cor-v: volume target (default 3 unit spheres)")
    pipe.add_argument("--eps", type=float, default=0.05,
                      help="main-b-budget: excess scale")
    pipe.add_argument("--hemisphere-volume", type=float, default=None,
                      help="main-b-budget: externally certified volume "
                           "(default: exact half reference)")
    pipe.add_argument("--out", metavar="CERT", default=None)
    pipe.add_argument("--profiles-dir", metavar="DIR", default=None)

    chk = sub.add_parser("recheck", help="revalidate a stored certificate")
    chk.add_argument("certificate", metavar="CERT")
    chk.add_argument("--profiles-dir", metavar="DIR", default=None,
                     help="where artifact files live (default: beside CERT)")
    return top, {"build-tunnel": tun, "surgery": sur, "pipeline": pipe,
                 "recheck": chk}


def _apply_config(config: dict, top, subparsers) -> None:
    """Install config values as parser defaults, so flags still win.

    argparse converts only command line strings through each action's
    type, so the conversion is applied here by hand.
    """
    actions = {}
    for parser in [top, *subparsers.values()]:
        for action in parser._actions:
            actions.setdefault(action.dest, []).append(action)
    unknown = set(config) - set(actions)
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")
    for key, raw in config.items():
        for action in actions[key]:
            value = action.type(raw) if action.type is not None else raw
            action.default = value


def _run_pipeline(args) -> PipelineResult:
    common = dict(grid_density=args.grid_density, tolerance=args.tolerance,
                  certificate_path=args.out, profiles_dir=args.profiles_dir)
    diameter = args.d
    # each gluing pipeline keeps its own default tube radius unless given one
    gluing = {"sharpness": args.j, **common}
    if args.tube is not None:
        gluing["tube_radius"] = args.tube
    if args.name == "main-a":
        ingredient = round_sphere_ingredient(args.n, args.ingredient_radius)
        return attach_hemisphere(ingredient, diameter_target=diameter or 0.0,
                                 **gluing)
    if args.name == "cor-d":
        ingredient = round_sphere_ingredient(args.n, 0.5)
        return attach_hemisphere(
            ingredient,
            diameter_target=10.0 if diameter is None else diameter, **gluing)
    if args.name == "cor-t":
        return attach_product_ingredient(
            args.p, args.q, factor_radius=args.factor_radius,
            diameter_target=diameter or 0.0, **gluing)
    if args.name == "cor-v":
        volume = args.volume
        if volume is None:
            volume = 3.0 * unit_sphere_volume(args.n)
        return sphere_chain_certificate(volume, args.n, **gluing)
    hemisphere = hemisphere_standin(
        args.n, declared_volume=(0.5 * unit_sphere_volume(args.n)
                                 if args.hemisphere_volume is None
                                 else args.hemisphere_volume))
    return verify_volume_budget(
        hemisphere, args.eps,
        diameter_target=10.0 if diameter is None else diameter,
        dim=args.n, **common)


def _body_radii(text) -> tuple[float, float]:
    """--body RHO_P,RHO_Q as two floats."""
    try:
        base_radius, slice_radius = (float(r) for r in str(text).split(","))
    except ValueError:
        raise ParameterOutOfRange(
            f"--body wants two radii RHO_P,RHO_Q, got {text!r}") from None
    return base_radius, slice_radius


def _print_certificate(doc: dict) -> None:
    """One line per claim, then the aggregate status; doc is a certificate
    or a recheck report."""
    for claim in doc["claims"]:
        print(f"claim {claim['name']:34s} {claim['status']:12s} "
              f"margin={claim['margin']:.6e}")
    print(f"status {doc['status']}")


def main(argv=None) -> int:
    parser, subparsers = _parser()
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        _apply_config(_read_config(probe.config), parser, subparsers)
    args = parser.parse_args(argv)

    try:
        if args.command == "recheck":
            report = recheck_certificate(args.certificate,
                                         files_dir=args.profiles_dir)
            if report["artifacts_missing"]:
                print(f"artifacts missing: {report['artifacts_missing']}")
            _print_certificate(report)
            return 0 if report["status"] == "PASS" else 1

        if args.command == "build-tunnel":
            result = tunnel_certificate(
                args.n, args.kappa, args.delta, args.length, args.j,
                grid_density=args.grid_density, tolerance=args.tolerance,
                certificate_path=args.out, profiles_dir=args.profiles_dir)
        elif args.command == "surgery":
            base_radius, slice_radius = _body_radii(args.body)
            result = surgery_certificate(
                args.p, args.q, args.delta, base_radius=base_radius,
                slice_radius=slice_radius, grid_density=args.grid_density,
                tolerance=args.tolerance, certificate_path=args.out,
                profiles_dir=args.profiles_dir)
        else:
            result = _run_pipeline(args)
    except NeckforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    _print_certificate(result.certificate)
    if result.certificate_path is not None:
        print(f"certificate written to {result.certificate_path}")
    return 0 if result.status == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
