#!/usr/bin/env python3
"""Walk one set through the whole pipeline and narrate every stage.

Usage:  python3 scripts/decomposition_walkthrough.py [recipe ...]

Default instance is the radius-1 ball in the integral Heisenberg group —
the torsion-free case where the ordered progression blows up to half a
million elements and the containment exponent comes from the certified
word-length bound rather than exact ball enumeration.
"""
import sys
import time

from growthlab import (
    corollary_covers,
    decompose,
    greedy_cover_certificate,
    growth_law,
)
from growthlab.recipes import generate_example


def main() -> int:
    recipe = " ".join(sys.argv[1:]) or "ball ut:3:0 radius=1"
    print(f"instance: {recipe}")
    A = generate_example(recipe)
    print(f"|A| = {len(A)}  symmetric={A.is_symmetric()}")

    cert = greedy_cover_certificate(A)
    print(f"certificate: K_upper={cert.K_upper}  K_lower={cert.K_lower}")
    for row in growth_law(cert, 5):
        print(f"  |A^{row.power}| = {row.size}  <=  {row.bound}  ({'ok' if row.within else 'VIOLATED'})")

    t0 = time.time()
    dec = decompose(cert)
    print(f"decomposition ({time.time() - t0:.1f}s):")
    for line in dec.logs:
        print(f"  {line}")
    print(f"  H: order {dec.H.order()} (normal={dec.H.is_normal})  radius_H={dec.radius_H}")
    print(f"  progression rank {dec.rank_final}, containment exponent {dec.radius_P}")
    print(f"  pieces: {len(dec.pieces)}  delta={dec.delta}")

    for which in ("ruzsa", "chang"):
        t0 = time.time()
        rep = corollary_covers(dec, cert, which)
        took = time.time() - t0
        if which == "ruzsa":
            print(f"ruzsa-style cover: |X|={len(rep.X)} rank={rep.rank} verified=True ({took:.1f}s)")
        else:
            print(f"chang-style cover: t={rep.t} stages={list(rep.stage_sizes)} rank={rep.rank} verified=True ({took:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
