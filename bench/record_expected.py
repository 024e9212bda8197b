"""Write bench/expected.json, the answers the benchmark checks against.

    python3 bench/record_expected.py

Rows are recorded for the canonical elements; the benchmark analyses the
catalog in a seeded order and the large spaces at seeded K-conjugates of
the canonical element, and every report field is invariant under both, so
the recorded digests hold for every seed. Re-record only when a change of
the library's output is intended.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.configure_process()
    run.load_library()
    import spindles
    import workloads

    expected = {}
    for name, items in (
        ("catalog", workloads.catalog_items(0)),
        ("large_conj", workloads.large_items(None)),
    ):
        _, outcomes = workloads.SpaceSweep(items).run_pass()
        errors = [f"{family}: {row!r}" for family, row, _ in outcomes if isinstance(row, Exception)]
        if errors:
            print("\n".join(["analysis failed; not recording"] + errors), file=sys.stderr)
            return 1
        expected[name] = {str(family): workloads.row_digest(row) for family, row, _ in outcomes}
    results, ok = spindles.run_verification(cap=workloads.VERIFY_CAP)
    if not ok:
        print("run_verification reports failures; not recording", file=sys.stderr)
        return 1
    expected["verify"] = {"checks": len(results), "digest": workloads.checks_digest(results)}
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
