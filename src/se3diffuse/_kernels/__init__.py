"""NumPy kernels of the rotational heat kernel.

``series`` sums the truncated character series, which converges in a
handful of terms at large eps; ``closed_form`` sums its Poisson
resummation, which converges in a handful of images at small eps.
``igso3`` picks one by eps.  ``BACKEND`` names the implementation.
"""

from __future__ import annotations

from .closed_form import closed_log_f_ratio, closed_moment, closed_r
from .series import series_df, series_f

BACKEND = "numpy"

__all__ = ["BACKEND", "series_f", "series_df", "closed_log_f_ratio", "closed_r", "closed_moment"]
