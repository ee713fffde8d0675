"""Write perfbench/answers_seed0.json: the answers of every operation on
the default seed, which run.py then requires to stay the same.

    python3 perfbench/record_answers.py

Only answers that pass every check are recorded; any failing operation
aborts without writing. Rerun this only when an operation is added or a
change is meant to alter a pinned answer, and say so in CHANGES.md.
"""

import json
import sys

import run


def main():
    run.import_linsys()
    import workloads

    answers = {}
    for name in workloads.WORKLOADS:
        wl = run.prepare(name, workloads.DEFAULT_SEED)
        try:
            wl.finish_setup()
            answers[name] = {}
            for op in wl.ops:
                problem, summary = op.check(op.run())
                if problem is not None:
                    print(f"error: {name} / {op.name}: {problem}", file=sys.stderr)
                    return 1
                answers[name][op.name] = json.loads(json.dumps(summary))
        finally:
            wl.close()
    with open(workloads.ANSWERS_SEED0, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
