"""The benchmark's span tracer patches package functions by module and
name (bench/spans.py SITES).  A refactor that moves one of them must fail
here, not only in `python3 bench/run.py --trace 1`."""

import importlib.util
import os

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()  # KeyError names the first site that moved
    finally:
        tracer.uninstall()
