"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

Runs the program on the asbestos and americas datasets and on a small
tensor, confirms that each checker accepts the genuine report, then feeds it
a deliberately corrupted copy and confirms that the checker rejects it:
one flipped sign in u, delta scaled by 1.001, two CA singular values
swapped, one octant sum negated.  Exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys

from run import OUT, ROOT, load_program


def main() -> int:
    cli = load_program()
    import numpy as np

    import checks
    from workloads import read_dataset, write_tensor

    work = OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    asbestos = read_dataset(ROOT, "asbestos")
    americas = read_dataset(ROOT, "americas")
    cube = np.random.default_rng(7).poisson(4.0, size=(5, 6, 7)).astype(float)
    write_tensor(work / "cube.txt", cube)

    def report(*argv: str) -> dict:
        out = work / "report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run([*argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"taxicab-ca {' '.join(argv)} exited {code}")
        return json.loads(out.read_text(encoding="utf-8"))

    tca_rep = report("tca", "--dataset", "asbestos", "--axes", "2")
    ca_rep = report("ca", "--dataset", "americas", "--axes", "3")
    tensor_rep = report("tensor", str(work / "cube.txt"))

    def flip_u(rep):
        axis = rep["results"]["axes"][0]
        b = np.abs(axis["b"])
        b[b <= checks.INDETERMINATE * axis["delta"]] = np.inf
        j = int(np.argmin(b))  # the least telling coordinate whose sign is determined
        axis["u"][j] = -axis["u"][j]

    def scale_delta(rep):
        rep["results"]["axes"][0]["delta"] *= 1.001

    def swap_sigma(rep):
        axes = rep["results"]["axes"]
        axes[0]["sigma"], axes[1]["sigma"] = axes[1]["sigma"], axes[0]["sigma"]

    def negate_octant(rep):
        rep["results"]["octant_sums"][0] = -rep["results"]["octant_sums"][0]

    def check_tca(rep):
        checks.check_tca(rep, asbestos, axes=2, exact=True, flips=True)
        checks.check_asbestos_table2(rep)

    cases = [
        ("tca: one flipped sign in u", tca_rep, check_tca, flip_u),
        ("tca: delta scaled by 1.001", tca_rep, check_tca, scale_delta),
        ("ca: two singular values swapped", ca_rep,
         lambda rep: checks.check_ca(rep, americas, axes=3), swap_sigma),
        ("tensor: one octant sum negated", tensor_rep,
         lambda rep: checks.check_tensor(rep, cube, exact=True), negate_octant),
    ]
    ok = True
    for name, genuine, checker, corrupt in cases:
        checker(genuine)  # raises if the genuine report is rejected
        bad = copy.deepcopy(genuine)
        corrupt(bad)
        try:
            checker(bad)
        except checks.CheckFailure as exc:
            print(f"[rejected] {name}: {exc}")
        else:
            ok = False
            print(f"[ACCEPTED] {name}: the checker let a corrupted report through")
    shutil.rmtree(work, ignore_errors=True)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
