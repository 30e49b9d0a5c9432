"""
Designing a bending curve inside an ambient model
=================================================

The first stage of a tunnel pushes a thin tube along a curve that bends
away from a point of the ambient space while keeping the scalar
curvature of the swept hypersurface above a certified floor.  This
script designs such a curve inside the unit 3-sphere, verifies its
floor, and cross-checks the curvature of the swept slice by two
independent routes.
"""

import tempfile
from pathlib import Path

import numpy as np

from neckforge import round_sphere
from neckforge.bending import CurveDesignParams, design_bending_curve, save_curve_csv

model = round_sphere(3, 1.0)
params = CurveDesignParams(model=model, tube_radius=0.1)
curve = design_bending_curve(params)

print("designed bending curve in the unit 3-sphere")
print(f"  arc length        = {curve.length:.6f}")
print(f"  tube radius       = {params.tube_radius:g}")
print(f"  start tube value  = {curve.start_radius:.6f}")
print(f"  end tube value    = {curve.end_radius:.6f}")
print(f"  certified floor   = {curve.design_floor:.6f}"
      f"  (ambient value {model.scalar_curvature:g})")

# the slice curvature can be computed from a closed form or rebuilt
# from the principal curvature spectrum; the two must agree
print()
print("slice curvature, closed form vs spectrum reconstruction")
rng = np.random.default_rng(3)
worst = 0.0
for s in rng.uniform(0.0, curve.length, 6):
    closed = np.asarray(curve.scalar_curvature(s)).reshape(-1)[0]
    recon = np.asarray(curve.gauss_scalar(s)).reshape(-1)[0]
    rel = abs(recon - closed) / abs(closed)
    worst = max(worst, rel)
    print(f"  s = {s:6.3f}:  closed = {closed:9.5f},"
          f"  spectrum = {recon:9.5f},  rel gap = {rel:.1e}")
print(f"  worst relative gap = {worst:.1e}")

# export the sampled curve for plotting elsewhere; the directory is
# removed when the demo ends
with tempfile.TemporaryDirectory(prefix="neckforge_demo_") as tmp:
    out = Path(tmp) / "bending_curve.csv"
    save_curve_csv(curve, out)
    lines = out.read_text().splitlines()
    columns = next(ln for ln in lines if ln.startswith("# columns="))
    data_rows = sum(1 for ln in lines if not ln.startswith("#"))
    print()
    print(f"curve samples written to {out}")
    print(f"  {data_rows} rows, {columns[2:]}")
