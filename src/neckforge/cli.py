"""Command line front end for building and rechecking certificates.

Exit code 0 means every claim in the emitted or rechecked certificate
passed; 1 means at least one claim failed or came back inconclusive;
2 means the command line was refused (argparse usage error) or the
construction itself refused to run.  Each build command accepts only
the options its build reads, as _COMMANDS lists them, and recheck
refuses the top-level --grid-density and --tolerance, which only builds
read.  A refusal prints the usage of the command refusing.  A plain
key = value config file can preset any long option, with explicit flags
winning: a key applies to the commands that read it and is ignored by
the others, and a key that no command reads exits.

A build command imports the build modules when it runs, so `recheck`
loads only the standard library.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certificate import DEFAULT_TOLERANCE, recheck_certificate
from .errors import NeckforgeError, ParameterOutOfRange

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


def _body_radii(text) -> tuple[float, float]:
    """--body RHO_P,RHO_Q as two floats."""
    try:
        base_radius, slice_radius = (float(r) for r in str(text).split(","))
    except ValueError:
        raise ParameterOutOfRange(
            f"--body wants two radii RHO_P,RHO_Q, got {text!r}") from None
    return base_radius, slice_radius


def _build_tunnel(a, **common):
    from .pipelines import tunnel_certificate
    return tunnel_certificate(a.n, a.kappa, a.delta, a.length, a.j, **common)


def _surgery(a, **common):
    from .pipelines import surgery_certificate
    base_radius, slice_radius = _body_radii(a.body)
    return surgery_certificate(a.p, a.q, a.delta, base_radius=base_radius,
                               slice_radius=slice_radius, **common)


def _main_a(a, **common):
    from .pipelines import attach_hemisphere, round_sphere_ingredient
    return attach_hemisphere(round_sphere_ingredient(a.n, a.ingredient_radius),
                             diameter_target=a.d, sharpness=a.j,
                             tube_radius=a.tube, **common)


def _cor_t(a, **common):
    from .pipelines import attach_product_ingredient
    return attach_product_ingredient(
        a.p, a.q, factor_radius=a.factor_radius, diameter_target=a.d,
        sharpness=a.j, tube_radius=a.tube, **common)


def _cor_v(a, **common):
    from .models import unit_sphere_volume
    from .pipelines import sphere_chain_certificate
    volume = 3.0 * unit_sphere_volume(a.n) if a.volume is None else a.volume
    return sphere_chain_certificate(volume, a.n, sharpness=a.j,
                                    tube_radius=a.tube, **common)


def _main_b_budget(a, **common):
    from .models import unit_sphere_volume
    from .pipelines import hemisphere_standin, verify_volume_budget
    volume = (0.5 * unit_sphere_volume(a.n) if a.hemisphere_volume is None
              else a.hemisphere_volume)
    return verify_volume_budget(hemisphere_standin(a.n, declared_volume=volume),
                                a.eps, diameter_target=a.d, dim=a.n, **common)


class _Parser(argparse.ArgumentParser):
    """Refuses what it cannot parse with its own usage line; a plain
    subparser hands leftovers up to the top parser, whose usage names no
    command."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


class _BuildOption(argparse.Action):
    """A top-level option only builds read: stores its value and notes
    its flag, so recheck can refuse it. A config default notes nothing."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.build_flags = [*namespace.build_flags, option_string]


def _opt(flag: str, type_, default, help_: str | None = None, **extra):
    return flag, dict(type=type_, default=default, help=help_, **extra)


_N = _opt("--n", int, 3, "manifold dimension")
_J = _opt("--j", float, 100.0, "curvature budget is 1/j per tunnel")
_D0 = _opt("--d", float, 0.0, "diameter target")
_D10 = _opt("--d", float, 10.0, "diameter target")
_TUBE = _opt("--tube", float, 0.1, "tube radius")

# (group, command): its help, the options its build reads, and the parser
# defaults, build included; every build also reads --out and --profiles-dir
_COMMANDS = {
    (None, "build-tunnel"): ("tunnel inside one round model", [
        _N, _opt("--kappa", float, 6.0, "ambient scalar curvature"),
        _opt("--delta", float, 0.1, "tube radius"),
        _opt("--length", float, 2.0, "length of the waist cylinder"), _J],
        dict(build=_build_tunnel)),
    (None, "surgery"): ("codimension >= 3 surgery on a sphere product", [
        _opt("--p", int, None, "base dimension", required=True),
        _opt("--q", int, None, "slice dimension", required=True),
        _opt("--delta", float, 0.05, "tube radius and certified allowance"),
        _opt("--body", str, "1,1", "radii of the two round factors",
             metavar="RHO_P,RHO_Q")], dict(build=_surgery)),
    ("pipeline", "main-a"): (
        "round sphere ingredient glued to a hemisphere",
        [_N, _D0, _J, _TUBE, _opt("--ingredient-radius", float, 0.5,
                                  "ingredient sphere radius")],
        dict(build=_main_a)),
    ("pipeline", "cor-d"): (
        "main-a at ingredient radius 0.5, diameter target 10",
        [_N, _D10, _J, _TUBE], dict(build=_main_a, ingredient_radius=0.5)),
    ("pipeline", "cor-t"): (
        "round product S^p x S^q glued to a hemisphere",
        [_opt("--p", int, 1, "base factor dimension"),
         _opt("--q", int, 2, "other factor dimension"),
         _opt("--factor-radius", float, None, "factor radius before "
              "halving (default: 1/sqrt(2 n(n-1)), n = p + q)"),
         _D0, _J, _opt("--tube", float, 0.05, "tube radius")],
        dict(build=_cor_t)),
    ("pipeline", "cor-v"): (
        "chain of unit spheres ending in a hemisphere",
        [_N, _opt("--volume", float, None, "volume target (default: 3 "
                  "unit spheres)"), _J, _TUBE], dict(build=_cor_v)),
    ("pipeline", "main-b-budget"): (
        "hemisphere, long thin tunnel and small sphere in a volume budget",
        [_N, _opt("--eps", float, 0.05, "excess scale"), _D10,
         _opt("--hemisphere-volume", float, None, "externally certified "
              "hemisphere volume (default: exact half reference)")],
        dict(build=_main_b_budget)),
}
_FILES = [_opt("--out", str, None, metavar="CERT"),
          _opt("--profiles-dir", str, None, metavar="DIR")]


def _parser() -> tuple[argparse.ArgumentParser, list]:
    """The top parser and every parser that holds options, recheck's
    last."""
    top = _Parser(
        prog="neckforge",
        description="curvature-controlled tunnels, surgeries and their "
                    "numerical certificates")
    top.add_argument("--config", metavar="FILE",
                     help="key = value defaults; explicit flags win")
    top.add_argument("--grid-density", type=float, default=1.0,
                     action=_BuildOption,
                     help="multiplier on curvature sampling resolution")
    top.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                     action=_BuildOption,
                     help="claim margin below this is inconclusive")
    top.set_defaults(build_flags=[])
    groups = {None: top.add_subparsers(dest="command", required=True)}
    parsers = [top]
    for (group, name), (help_, options, defaults) in _COMMANDS.items():
        if group not in groups:
            groups[group] = groups[None].add_parser(
                group, help="headline constructions").add_subparsers(
                dest="name", required=True)
        # no abbreviations in a pipeline: its options differ from those of
        # the next one, so --p would read as --profiles-dir on main-a
        cmd = groups[group].add_parser(name, help=help_,
                                       allow_abbrev=group is None)
        for flag, kwargs in options + _FILES:
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(**defaults)
        parsers.append(cmd)
    chk = groups[None].add_parser("recheck",
                                  help="revalidate a stored certificate")
    chk.add_argument("certificate", metavar="CERT")
    chk.add_argument("--profiles-dir", metavar="DIR", default=None,
                     help="where artifact files live (default: beside CERT)")
    return top, parsers + [chk]


def _apply_config(config: dict, parsers) -> None:
    """Install config values as parser defaults, so flags still win;
    argparse converts a string default through its option's type."""
    known = set()
    for parser in parsers:
        dests = {action.dest for action in parser._actions}
        parser.set_defaults(**{k: v for k, v in config.items() if k in dests})
        known |= dests
    unknown = set(config) - known
    if unknown:
        raise SystemExit(f"unknown config keys: {sorted(unknown)}")


def _print_certificate(doc: dict) -> None:
    """One line per claim, then the aggregate status; doc is a certificate
    or a recheck report."""
    for claim in doc["claims"]:
        print(f"claim {claim['name']:34s} {claim['status']:12s} "
              f"margin={claim['margin']:.6e}")
    print(f"status {doc['status']}")


def main(argv=None) -> int:
    parser, parsers = _parser()
    probe, _ = parser.parse_known_args(argv)
    if probe.config:
        _apply_config(_read_config(probe.config), parsers)
    args = parser.parse_args(argv)
    if args.command == "recheck" and args.build_flags:
        parsers[-1].error(f"recheck does not read "
                          f"{', '.join(args.build_flags)}")

    try:
        if args.command == "recheck":
            report = recheck_certificate(args.certificate,
                                         files_dir=args.profiles_dir)
            if report["artifacts_missing"]:
                print(f"artifacts missing: {report['artifacts_missing']}")
            _print_certificate(report)
            return 0 if report["status"] == "PASS" else 1
        result = args.build(
            args, grid_density=args.grid_density, tolerance=args.tolerance,
            certificate_path=args.out, profiles_dir=args.profiles_dir)
    except NeckforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    _print_certificate(result.certificate)
    if result.certificate_path is not None:
        print(f"certificate written to {result.certificate_path}")
    return 0 if result.status == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
