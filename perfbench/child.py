"""One benchmark item in a fresh interpreter.

    python3 perfbench/child.py --probe
    python3 perfbench/child.py --warm-up
    python3 perfbench/child.py ITEM_JSON TRACE

`qmds.cli` is imported first, so the time from the parent's spawn to
`t_imported` is the interpreter start plus `import qmds` a command-line user
pays.  The item runs `qmds.cli.main` in process with its output captured;
the timed region ends when `main` returns.  The output checks run after
that, outside the timed region.  One JSON object goes to stdout.
"""

import sys
import time

import qmds.cli

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

#: Small commands run before anything is timed, so that the bytecode of every
#: module an item imports lazily (argparse's messages import locale, for one)
#: is written before the first timed child needs it.
WARM_UP = (
    ["sweep", "--q", "2", "--family", "both", "--format", "csv"],
    ["construct", "theorem1", "--q", "2", "--t", "2", "--k", "1"],
    ["construct", "theorem2", "--q", "3", "--t", "2", "--d", "2"],
)


def hermitian_recheck(obj: dict) -> str:
    """'' when the emitted generator G has G^(q) G^T = 0 and the expected
    shape, else the reason.  Uses only the field arithmetic of qmds, not its
    Gram routine."""
    from qmds.field import make_field

    f = obj["field"]
    field = make_field(f["p"], f["e"])
    if list(field.modulus) != f["modulus"]:
        return "emitted modulus is not the canonical one"
    rows = obj["generator"]
    n = obj["quantum"]["n"]
    if len(rows) != obj["quantum"]["d"] - 1 or any(len(r) != n for r in rows):
        return "generator shape disagrees with the quantum parameters"
    for r in rows:
        rq = [field.frobenius(x) for x in r]
        for s in rows:
            acc = 0
            for x, y in zip(rq, s):
                acc = field.add(acc, field.mul(x, y))
            if acc:
                return "emitted generator is not Hermitian self-orthogonal"
    return ""


def check(item: dict, rc: int, out: str, counters) -> list:
    """Every way the item's output disagrees with its reference."""
    errors = []
    expect = item["expect"]
    if rc != 0:
        errors.append(f"exit code {rc}")
    if counters["verify.codes"] == 0:
        errors.append("no verification report was observed")
    if counters["verify.passed"] != counters["verify.codes"]:
        errors.append("a verification report did not pass")
    if item["kind"] == "sweep":
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if digest != expect["sha256"]:
            errors.append(f"sweep CSV sha256 {digest} differs from the reference")
        excluded = sum(line.endswith(",excluded-by-paper") for line in out.splitlines())
        counters["verify.excluded_rows"] = excluded
        if excluded != expect["excluded_rows"]:
            errors.append(f"{excluded} excluded rows, expected {expect['excluded_rows']}")
        return errors
    try:
        obj = json.loads(out)
        if obj["quantum"] != expect:
            errors.append(f"quantum parameters {obj['quantum']} differ from {expect}")
        reason = hermitian_recheck(obj)
        if reason:
            errors.append(reason)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable construct output: {exc!r}")
    return errors


def run_item(item: dict, traced: bool) -> dict:
    targets = tracer.LAYER_TARGETS if traced else tracer.REPORT_TARGETS
    out, err = io.StringIO(), io.StringIO()
    with tracer.Tracer(targets) as tr:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = qmds.cli.main(list(item["argv"]))
            except Exception:  # reported as a failed item, never hidden
                rc = "raised " + traceback.format_exc()[-2000:]
            t_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    cpu_s = time.process_time()
    rss_mb = tracer.maxrss_mb()
    errors = check(item, rc, out.getvalue(), tr.counters)
    if errors:
        errors.append(err.getvalue()[-2000:])
    return {
        "t_imported": T_IMPORTED,
        "t_end": t_end,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "errors": errors,
        "counters": dict(tr.counters),
        "spans": tr.spans,
        "layers": tr.layer_self_times(),
        "missing": tr.missing,
    }


def main() -> int:
    if not Path(qmds.__file__).resolve().is_relative_to(SRC):
        print(f"qmds was imported from {qmds.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if sys.argv[1:] == ["--probe"]:
        result = {"t_imported": T_IMPORTED}
    elif sys.argv[1:] == ["--warm-up"]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in WARM_UP:
                qmds.cli.main(list(argv))
        result = {"t_imported": T_IMPORTED}
    else:
        result = run_item(json.loads(sys.argv[1]), sys.argv[2] == "1")
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    # Skip interpreter teardown: freeing a large brute-force table adds
    # nothing to the item and only delays the next one.
    os._exit(main())
