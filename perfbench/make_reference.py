"""Record the reference signatures the benchmark checks densities against.

Run from the repository root, once, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

For every candidate x1 of each mask family it runs the retrodictive
pipeline on the largest grid that family is benchmarked on and stores
the density's signature (moments 0..3, sum of squares, peak) in
perfbench/reference.json.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count and the import path

run.import_package()

import harness  # noqa: E402
from biphoton import cli, sweep_conditioning  # noqa: E402


def main() -> None:
    families = {}
    for w in harness.WORKLOADS.values():
        if w.family in families and families[w.family]["grid_n"] >= w.n:
            continue
        offsets = list(range(-w.radius, w.radius + 1))
        setup = cli.build_setup(cli.parse_config(harness.config_text(w, w.n, offsets, ".")))
        results = sweep_conditioning(setup, [k * harness.DX for k in offsets])
        g = setup.grid
        families[w.family] = {
            "grid_n": w.n,
            "offsets": offsets,
            "signatures": [
                harness.signature(g.x, r.distribution.density, g.dx) for r in results
            ],
        }
        print(f"{w.family}: {len(offsets)} positions on n={w.n}", file=sys.stderr)
    # One signature per line keeps the file reviewable.
    blocks = []
    for fam, e in families.items():
        rows = ",\n".join("   " + json.dumps(s) for s in e["signatures"])
        blocks.append(
            f'  "{fam}": {{"grid_n": {e["grid_n"]}, "offsets": {json.dumps(e["offsets"])},\n'
            f'  "signatures": [\n{rows}\n  ]}}'
        )
    text = '{"families": {\n' + ",\n".join(blocks) + "\n}}\n"
    json.loads(text)
    harness.REFERENCE_FILE.write_text(text)


if __name__ == "__main__":
    main()
