"""Print the deterministic work counts of the inference engine: ratio
evaluations, EL rows solved and Newton iterations per interval, and the
el.solve_rows calls and lockstep rounds (_Searches.advance calls) of a few
batched and one-sample calls.  Two are blocks of small samples where every
centered AJEL interval is the whole line and takes no search: at n = 8 and
level 1 - 1e-15, where the plain searches bisect toward their hull bounds,
and at n = 6 and level 0.95.

Run from the repository root with the package to count on the path:
``PYTHONPATH=src python .github/work_counts.py``.
"""

import numpy as np
from pwmjel import (DistSpec, confidence_interval, confidence_intervals, el, inference,
                    make_rng, ratio_tests, sample)
work = {"calls": 0, "rows": 0, "iterations": 0, "rounds": 0}
solve_rows = el.solve_rows
def counting(*args, **kwargs):
    sol = solve_rows(*args, **kwargs)
    work["calls"] += 1
    work["rows"] += len(sol.lam)
    work["iterations"] += int(sol.iterations.sum())
    return sol
el.solve_rows = counting
advance = inference._Searches.advance
def round_counting(self):
    work["rounds"] += 1
    advance(self)
inference._Searches.advance = round_counting
xs = [sample(DistSpec("exponential", 1.0), 300, make_rng(seed)) for seed in range(200)]
for method, rule in (("JEL", "centered"), ("AJEL", "centered"), ("AJEL", "literal"),
                     ("DNEL", "centered"), ("VXL", "centered")):
    work["rows"] = work["iterations"] = 0
    evals = [confidence_interval(x, 1, 0.95, method, rule).endpoint_iterations for x in xs]
    print(f"{method} ({rule}): {np.mean(evals):.3f} evaluations, "
          f"{work['rows'] / len(xs):.3f} EL rows solved, "
          f"{work['iterations'] / len(xs):.3f} Newton iterations per interval")
work.update(calls=0, rows=0, iterations=0, rounds=0)
confidence_intervals(xs[:10], 1, 0.95, ("JEL", "AJEL", "DNEL", "VXL"))
print(f"four-method block of 10 samples: {work['rounds']} lockstep rounds, {work['calls']} "
      f"solve_rows calls, {work['rows']} EL rows solved, {work['iterations']} Newton iterations")
for n in (50, 300, 3000):
    x = sample(DistSpec("exponential", 1.0), n, make_rng(n))
    for rule in ("centered", "literal"):
        work.update(calls=0, rows=0, iterations=0, rounds=0)
        confidence_intervals([x], 1, 0.95, ("JEL", "AJEL", "DNEL", "VXL"), rule)
        print(f"one-sample four-method call, n = {n} ({rule}): {work['rounds']} lockstep "
              f"rounds, {work['calls']} solve_rows calls, {work['rows']} EL rows solved, "
              f"{work['iterations']} Newton iterations")
for n in (25, 300, 3000):
    xs = [sample(DistSpec("lognormal", 1.0), n, make_rng(seed)) for seed in range(50)]
    work.update(calls=0, rows=0, iterations=0)
    ratio_tests(xs, 1, 1.6, 0.05, ("JEL", "AJEL", "DNEL", "VXL"))
    print(f"four-method test block of 50 samples, n = {n}: {work['calls']} solve_rows "
          f"calls, {work['rows']} EL rows solved, {work['iterations']} Newton iterations")
for n, level, name in ((8, 1.0 - 1e-15, "1 - 1e-15"), (6, 0.95, "0.95")):
    xs = [sample(DistSpec("exponential", 1.0), n, make_rng([n, seed])) for seed in range(64)]
    work.update(calls=0, rows=0, iterations=0, rounds=0)
    confidence_intervals(xs, 1, level, ("JEL", "AJEL", "DNEL", "VXL"))
    print(f"four-method block of 64 samples, n = {n}, level {name}: {work['rounds']} lockstep "
          f"rounds, {work['calls']} solve_rows calls, {work['rows']} EL rows solved, "
          f"{work['iterations']} Newton iterations")
