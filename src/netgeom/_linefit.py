"""The one weighted least-squares line kernel, shared by the degree fit of
``stats`` and the crawl slope of ``crawl``. It needs numpy alone, so a trace
job loads no graph code for it and a ``stats`` run loads it only to fit."""
import numpy as np


def _line_fits(x: np.ndarray, y: np.ndarray, w: np.ndarray, lo, hi) -> tuple:
    """Weighted least-squares lines ``y ~ intercept + slope * x`` over points lo..hi.

    ``lo`` and ``hi`` are inclusive point indices, scalars or equal-length
    arrays. One prefix-sum table over (w, wx, wy, wxx, wxy, wyy) serves every
    segment. Returns (slope, intercept, weighted residual sum of squares), the
    last clamped at 0 against rounding.
    """
    cols = np.stack([w, w * x, w * y, w * x * x, w * x * y, w * y * y], axis=1)
    table = np.concatenate((np.zeros((1, 6)), np.cumsum(cols, axis=0)))
    sw, sx, sy, sxx, sxy, syy = (table[np.add(hi, 1)] - table[lo]).T
    slope = (sw * sxy - sx * sy) / (sw * sxx - sx * sx)
    intercept = (sy - slope * sx) / sw
    return slope, intercept, np.maximum(syy - intercept * sy - slope * sxy, 0.0)
