"""
Building a tunnel and checking its certificate
==============================================

A tunnel connects two small geodesic balls of an ambient model by an
explicit warped-product neck whose scalar curvature never drops below a
stated floor.  The build emits a machine-checkable certificate: every
claimed inequality is stored with both sides, the margin, and hashes of
the profile files, and an independent reader can re-derive all of it.
"""

import tempfile
from pathlib import Path

from neckforge import recheck_certificate, tunnel_certificate

# the certificate and its profile files live in a temporary directory
# that is removed when the demo ends
with tempfile.TemporaryDirectory(prefix="neckforge_demo_") as tmp:
    out = Path(tmp)
    cert_path = out / "tunnel.cert.json"

    # dimension 3, ambient curvature 6 (the unit sphere), tube radius 0.1,
    # a cylinder segment of length 2, and floor 6 - 1/100
    res = tunnel_certificate(3, 6.0, 0.1, 2.0, 100.0,
                             certificate_path=cert_path,
                             profiles_dir=out / "profiles")

    print(f"tunnel certificate: overall status {res.status}")
    for claim in res.certificate["claims"]:
        print(f"  {claim['name']:<22} {claim['lhs_value']:14.9f} {claim['op']:>2}"
              f" {claim['rhs_value']:14.9f}   margin {claim['margin']:.3e}"
              f"   {claim['status']}")

    print()
    print(f"  certified min scalar  = {res.quantity('global_min_scalar'):.6f}")
    print(f"  diameter lower bound  = {res.quantity('diameter_lower'):.6f}")
    print(f"  neck volume           = {res.quantity('volume_total'):.6f}")

    # an independent recheck reads the file back, recomputes every margin,
    # and re-hashes the profile artifacts
    reread = recheck_certificate(cert_path)
    print()
    print(f"independent recheck from disk: {reread['status']}")
    print(f"  artifacts verified: {', '.join(reread['artifacts_verified'])}")

    # any numeric tamper is caught: flip one digit and recheck again
    text = cert_path.read_text()
    tampered = out / "tunnel_tampered.cert.json"
    tampered.write_text(text.replace('"status": "PASS"', '"status": "FAIL"', 1))
    try:
        recheck_certificate(tampered)
        print("tampered file was NOT caught (this should not happen)")
    except Exception as exc:
        print(f"tampered copy rejected: {type(exc).__name__}: {exc}")
