"""Print the deterministic work counts of the inference engine: ratio
evaluations, EL rows solved and Newton iterations per interval, and the
el.solve_rows calls of a few batched and one-sample calls.

Run from the repository root with the package to count on the path:
``PYTHONPATH=src python .github/work_counts.py``.
"""

import numpy as np
from pwmjel import DistSpec, confidence_interval, el, make_rng, sample
from pwmjel.inference import confidence_intervals, ratio_tests
work = {"calls": 0, "rows": 0, "iterations": 0}
solve_rows = el.solve_rows
def counting(*args, **kwargs):
    sol = solve_rows(*args, **kwargs)
    work["calls"] += 1
    work["rows"] += len(sol.lam)
    work["iterations"] += int(sol.iterations.sum())
    return sol
el.solve_rows = counting
xs = [sample(DistSpec("exponential", 1.0), 300, make_rng(seed)) for seed in range(200)]
for method, rule in (("JEL", "centered"), ("AJEL", "centered"), ("AJEL", "literal"),
                     ("DNEL", "centered"), ("VXL", "centered")):
    work["rows"] = work["iterations"] = 0
    evals = [confidence_interval(x, 1, 0.95, method, rule).endpoint_iterations for x in xs]
    print(f"{method} ({rule}): {np.mean(evals):.3f} evaluations, "
          f"{work['rows'] / len(xs):.3f} EL rows solved, "
          f"{work['iterations'] / len(xs):.3f} Newton iterations per interval")
work.update(calls=0, rows=0, iterations=0)
confidence_intervals(xs[:10], 1, 0.95, ("JEL", "AJEL", "DNEL", "VXL"))
print(f"four-method block of 10 samples: {work['calls']} solve_rows calls, "
      f"{work['rows']} EL rows solved, {work['iterations']} Newton iterations")
for n in (50, 300, 3000):
    x = sample(DistSpec("exponential", 1.0), n, make_rng(n))
    for rule in ("centered", "literal"):
        work.update(calls=0, rows=0, iterations=0)
        confidence_intervals([x], 1, 0.95, ("JEL", "AJEL", "DNEL", "VXL"), rule)
        print(f"one-sample four-method call, n = {n} ({rule}): {work['calls']} solve_rows "
              f"calls, {work['rows']} EL rows solved, {work['iterations']} Newton iterations")
for n in (25, 300, 3000):
    xs = [sample(DistSpec("lognormal", 1.0), n, make_rng(seed)) for seed in range(50)]
    work.update(calls=0, rows=0, iterations=0)
    ratio_tests(xs, 1, 1.6, 0.05, ("JEL", "AJEL", "DNEL", "VXL"))
    print(f"four-method test block of 50 samples, n = {n}: {work['calls']} solve_rows "
          f"calls, {work['rows']} EL rows solved, {work['iterations']} Newton iterations")
