"""
Scaled clouds converge to limit sets
====================================

Scaling a mean excess plot by the k-th largest observation collapses it,
as the sample grows, onto a deterministic set that depends only on the
tail regime: a ray through the origin for heavy tails, a falling segment
for bounded support, a horizontal line for exponential-type tails.  The
windowed Hausdorff distance between the scaled cloud and its limit set
turns that picture into a single number that should shrink with n.
"""

import numpy as np

import tailscope as ts
from tailscope.svgplot import Series, render_plot

# --- one regime by hand: Pareto with tail shape 0.5, limit ray y = x ----
# a single draw per n can move either way (heavy tails give the distance a
# wide spread); the replicated medians further down show the actual trend
model = ts.Pareto(2.0)
xi = model.domain_shape
window = ts.default_window("positive")       # x in [1, 3], y in [0, 4]
reference = ts.discretize(ts.limit_set("positive", xi), window)

for n in (10_000, 100_000):
    sample = ts.order_statistics(model.sample(n, ts.RandomSeed(3)))
    cloud = ts.normalize_positive(sample, ts.default_k(n))
    d = ts.hausdorff_window(cloud, reference, window)
    print(f"n={n:>7,}  k={ts.default_k(n):>5}  distance to the ray: {d:.4f}  (one draw)")

# keep the large-n cloud for the picture
render_plot(
    "scaled_cloud_demo.svg",
    [
        Series(np.column_stack([cloud.x, cloud.y])),
        Series(np.column_stack([reference.x, reference.y]), kind="line"),
    ],
    title="Scaled mean excess cloud vs. its limit ray (Pareto, shape 0.5)",
    xlabel="scaled threshold",
    ylabel="scaled mean excess",
)
print("wrote scaled_cloud_demo.svg")

# --- all three regimes, replicated: medians over 10 paired runs ---------
print("\nmodel            case      median distance, n=1e4 -> n=1e5")
cases = (
    (ts.Pareto(2.0), "positive"),
    (ts.Beta(2.0, 2.0), "negative"),
    (ts.Exponential(1.0), "zero"),
)
for model, case in cases:
    report = ts.run_convergence(
        model, case, (10_000, 100_000), reps=10, seed=ts.RandomSeed(1, 40)
    )
    med = report.medians()
    print(f"{model.label():<16} {case:<9} {med[0]:.4f} -> {med[1]:.4f}")
