"""Self-test of the output checks: every default-seed golden output passes
its job's check, one deliberately tampered copy of each fails it, and the
run-level accounting counts a tampered or golden-mismatched output as a
failed job run.

    python3 perfbench/selftest.py      # exit code 0 when all hold
"""

from __future__ import annotations

import csv
import io
import json
import sys

import run


def _edit_csv(text, edit):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    edit(header, rows[1:])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _add_one(field):
    def edit(header, body):
        i = header.index(field)
        body[0][i] = str(int(body[0][i]) + 1)
    return edit


def _tail_rate(header, body):
    for field in ("rate", "slope"):
        i = header.index(field)
        body[-1][i] = repr(float(body[-1][i]) * 10)


def _json_edit(text, edit):
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, sort_keys=True)


def _power_liar(rep):
    rep["est_f"] = rep["bound"] + 0.1


def _gap_liar(res):
    res["thickness"] = "3"


def _rates_liar(rep):
    rep["kpow2"][0][1] += 1


def _float_field(text, index, delta):
    parts = text.split(",")
    parts[index] = repr(float(parts[index]) + delta)
    return ",".join(parts)


def tamper(name, text):
    """A copy of the output with one value changed in a way the oracle
    must notice."""
    kind = name.split(":")[0]
    if kind == "entropy":
        return _edit_csv(text, _add_one("count"))
    if kind == "modulus":
        return _edit_csv(text, _add_one("p_eps"))
    if kind == "tail":
        return _edit_csv(text, _tail_rate)
    if kind == "power":
        return _json_edit(text, _power_liar)
    if kind == "reparam":
        parts = text.split(",")
        parts[5] = "1"                      # coverage defect
        return ",".join(parts)
    if kind == "sft":
        return _float_field(text, -1, 1e-3)
    if kind == "thickness":
        return "2/3"
    if kind == "gap-lemma":
        return _json_edit(text, _gap_liar)
    if kind == "rates":
        return _json_edit(text, _rates_liar)
    raise KeyError(name)


def main():
    sys.path.insert(0, str(run.SRC))
    import workloads

    bad = []
    for workload in run.WORKLOADS:
        golden = json.loads((run.GOLDEN / f"{workload}.json").read_text())["outputs"]
        jobs = workloads.build(workload, workloads.DEFAULT_SEED)
        for job in jobs:
            good = golden[job.name]
            if job.check(good):
                bad.append(f"{job.name}: golden output rejected: {job.check(good)}")
            forged = tamper(job.name, good)
            if forged == good or not job.check(forged):
                bad.append(f"{job.name}: tampered output accepted")
        # accounting: a pass whose output differs from pass 0 is a failed
        # run, and so is a pass 0 output that differs from the golden file
        job = jobs[0]
        passes = [run.Pass(traced=False, outputs=[golden[j.name] for j in jobs],
                           errors=[None] * len(jobs)) for _ in range(2)]
        passes[1].outputs[0] = tamper(job.name, golden[job.name])
        attempted, failed, problems = run._check(jobs[:1], passes, golden)
        if (attempted, failed) != (2, 1) or not problems:
            bad.append(f"{workload}: nondeterministic output not counted "
                       f"({attempted}, {failed})")
        wrong = dict(golden, **{job.name: tamper(job.name, golden[job.name])})
        attempted, failed, _ = run._check(jobs[:1], passes[:1], wrong)
        if failed != 1:
            bad.append(f"{workload}: golden mismatch not counted")
        print(f"{workload}: {len(jobs)} jobs checked")
    for line in bad:
        print(f"FAIL {line}")
    print("selftest", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
