"""REP019 fixture: dynamic and non-namespaced span/metric names."""

from repro import obs


def run_task(kind, data):
    """Interpolated names splinter the aggregation keys per value."""
    with obs.span(f"task.{kind}"):          # finding: f-string name
        tally = obs.counter("task_" + kind)  # finding: concatenation
        tally.add()
    runs = obs.counter("runtime")            # finding: no namespace
    quiet = obs.gauge(f"depth.{kind}")  # repro: noqa[REP019]
    with obs.span("parallel.task", kind=kind):  # static + label: fine
        pass
    return runs, quiet, data
