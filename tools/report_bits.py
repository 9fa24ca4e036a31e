"""Write the comparison reports of one source tree, for a byte-identity check.

    python3 tools/report_bits.py SRC OUT

SRC is the directory that holds the ``isocal`` package of the tree under
test (for example ``src`` of a checkout).  The script runs 42 reports in
process through ``isocal.cli.main`` and writes each to ``OUT/<name>.json`` as
``{"rc": exit code, "rep": report}``, without the fields that differ from run
to run or from tree to tree: ``wall_time_s``, ``argv`` and ``input.path``.
At each of the seeds 1 and 7 the reports are

- ``verify`` of every input of the ``verify_plane`` and ``verify_curved``
  workloads of ``perfbench/inputs.py`` (generated at that seed, read only);
- ``calibration --space r2`` and ``--space r3`` with ``--seed`` at that seed;
- ``mayer`` of the ``free``, ``oscillator`` and ``cosh`` problems, likewise.

Run it once per tree into two directories; ``diff -r`` on them is the check.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)
VERIFY_WORKLOADS = ("verify_plane", "verify_curved")
CALIBRATION_SPACES = ("r2", "r3")
MAYER_PROBLEMS = ("free", "oscillator", "cosh")


def _reports(inputs, seed: int, scratch: Path):
    """(name, argv) of the comparison reports at one seed; curve files are
    written to scratch."""
    for workload in VERIFY_WORKLOADS:
        for op in inputs.generate(workload, seed).round:
            path = scratch / f"{op.name}.json"
            path.write_text(json.dumps(op.curve), encoding="utf-8")
            yield f"{workload}-{op.name}", op.argv + [str(path)]
    for space in CALIBRATION_SPACES:
        yield f"calibration-{space}", ["calibration", "--space", space,
                                       "--seed", str(seed)]
    for problem in MAYER_PROBLEMS:
        yield f"mayer-{problem}", ["mayer", "--problem", problem,
                                   "--seed", str(seed)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/report_bits.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.dont_write_bytecode = True  # leave both trees as they are
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parents[1]
                                  / "perfbench")]
    import inputs
    from isocal import cli

    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        report = scratch / "report.json"
        for seed in SEEDS:
            for name, args in _reports(inputs, seed, scratch):
                report.unlink(missing_ok=True)
                rc = cli.main(args + ["--out", str(report)])
                rep = None
                if report.exists():
                    rep = json.loads(report.read_text(encoding="utf-8"))
                    del rep["wall_time_s"], rep["argv"]
                    rep.get("input", {}).pop("path", None)
                text = json.dumps({"rc": rc, "rep": rep}, sort_keys=True,
                                  indent=2)
                (out / f"seed{seed}-{name}.json").write_text(
                    text + "\n", encoding="utf-8")
    print(f"{len(list(out.glob('*.json')))} reports in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
