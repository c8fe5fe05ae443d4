"""Timed process: one client running a workload's request list in a closed
loop, each request sent when the previous one returns.

Reads the job (inputs generated by ``run.py``) as JSON on stdin and writes
its measurements as JSON on stdout. Only the engine's work happens here;
inputs and referee answers are built in the parent process, so this
process's peak RSS is that of the timed passes. Set-up time runs from the
first line of this file, before ``infdiag`` (and so numpy) is imported,
through decoding in-memory inputs and one untimed warm-up pass.

Every pass also times a fixed calibration unit between requests, so that
``run.py`` can express each latency in the speed of a reference machine:
on a shared host the speed of the same code changes by up to 2x from one
second to the next.
"""

from time import perf_counter

T0 = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def encode_plan(plan) -> dict:
    return {"steps": [[s.kind, s.node, s.other, s.outcome, s.added_arcs,
                       s.parameters_touched] for s in plan.steps],
            "added": plan.total_added_arcs,
            "touched": plan.total_parameters_touched}


def encode(op: str, out):
    """JSON form of one request's answer, for the referee."""
    if op == "posterior":
        vec, plan = out
        return {"vec": [float(p) for p in vec], **encode_plan(plan)}
    if op == "dsep":
        return {"sep": bool(out)}
    if op == "rewrite":
        return {"text": out}
    if op == "greedy":
        return encode_plan(out)
    return {"ranked": [encode_plan(plan) for plan, _ in out]}


def same(a, b) -> bool:
    """Exact equality of two answers to one request."""
    if hasattr(a, "shape") or hasattr(b, "shape"):
        return (hasattr(a, "shape") and hasattr(b, "shape")
                and a.shape == b.shape and bool((a == b).all()))
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    return type(a) is type(b) and a == b


# How often a pass pauses to time the calibration unit.
CALIBRATE_EVERY_S = 0.025


def calibrate(np) -> float:
    """Seconds taken by one fixed unit of interpreter and small-array work,
    the kind of work the engine does; about a millisecond."""
    start = perf_counter()
    a = np.arange(60.0).reshape(3, 4, 5)
    acc = 0.0
    for i in range(80):
        row = tuple(float(x) for x in a.reshape(-1)[:20])
        table = {j: row[j] for j in range(20)}
        b = np.moveaxis(a * (1 + i % 3), 0, -1).sum(axis=-1)
        acc += sum(table.values()) + float(b[0, 0])
    return perf_counter() - start


class Failed:
    """Stand-in answer for a request that raised."""

    def __init__(self, err: Exception):
        self.error = f"{type(err).__name__}: {err}"

    def __eq__(self, other):
        return isinstance(other, Failed) and other.error == self.error


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import infdiag
    import numpy as np

    if job["parse"]:
        models = job["models"]
    else:
        models = [infdiag.load(text) for text in job["models"]]

    def run(req):
        d = models[req["model"]]
        if job["parse"]:
            d = infdiag.load(d)
        op = req["op"]
        if op == "posterior":
            return infdiag.posterior(d, req["target"], req["evidence"])
        if op == "dsep":
            return infdiag.d_separated(d, req["a"], req["b"], req["given"])
        if op == "rewrite":
            return infdiag.save(infdiag.refactor(d, req["order"]))
        if op == "greedy":
            return infdiag.plan_reversals(d, req["target"], req["evidence"],
                                          "greedy")
        return infdiag.compare_orders(d, req["target"], req["evidence"],
                                      "exhaustive")

    requests = job["requests"]
    tracer = None
    if job["trace"]:
        sys.path.insert(0, job["bench"])
        from tracer import Tracer
        tracer = Tracer()

    def one_pass():
        """Sweep the request list once. Returns each request's latency, the
        calibration time around it, and the answers. The calibration unit
        runs between requests, at least every CALIBRATE_EVERY_S."""
        gc.collect()
        marks = [calibrate(np)]
        lat, segment, outs = [], [], []
        last = perf_counter()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            t = perf_counter()
            try:
                out = run(req)
            except Exception as err:  # counted as a failed request
                out = Failed(err)
            done = perf_counter()
            lat.append(done - t)
            segment.append(len(marks) - 1)
            outs.append(out)
            if done - last >= CALIBRATE_EVERY_S:
                marks.append(calibrate(np))
                last = perf_counter()
        marks.append(calibrate(np))
        cal = [(marks[k] + marks[k + 1]) / 2 for k in segment]
        return lat, cal, outs

    # Set-up is the import and decoding above plus the warm-up pass's
    # requests; the calibration units run during that pass are left out.
    t = perf_counter()
    lat, cal, _ = one_pass()
    took = perf_counter() - t
    setup_s = t - T0 + sum(lat)
    setup_cal = sorted(cal)[len(cal) // 2]

    passes, layers = [], []
    bad = [0] * len(requests)
    errors = {}
    prev = None
    min_passes = 2 if tracer is not None else 1
    # Stop before a pass that would overrun this worker's share of time.
    t_end = perf_counter() + job["seconds"]
    while len(passes) < min_passes or perf_counter() + took <= t_end:
        traced = tracer is not None and len(passes) % 2 == 1
        t = perf_counter()
        if traced:
            first = len(tracer.spans)
            tracer.install()
            try:
                lat, cal, outs = one_pass()
            finally:
                tracer.uninstall()
            layers.append(tracer.totals(first))
        else:
            lat, cal, outs = one_pass()
        took = perf_counter() - t
        passes.append({"traced": traced, "latency_s": lat, "calib_s": cal})
        for i, out in enumerate(outs):
            if isinstance(out, Failed):
                bad[i] += 1
                errors[i] = out.error
            elif prev is not None and not same(out, prev[i]):
                bad[i] += 1
                errors[i] = "answer differs from the previous pass"
        prev = outs

    if tracer is not None:
        tracer.write(job["trace_file"])
    result = {
        "setup_s": setup_s,
        "setup_calib_s": setup_cal,
        "passes": passes,
        "layers": layers,
        "bad": bad,
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": [None if isinstance(out, Failed) else encode(req["op"], out)
                    for req, out in zip(requests, prev)],
    }
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
