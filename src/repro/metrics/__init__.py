"""Model-quality and throughput metrics."""

from .normalized_entropy import (calibration, log_loss, normalized_entropy,
                                 relative_ne)

__all__ = ["log_loss", "normalized_entropy", "relative_ne", "calibration"]
