"""Forecasting of resource availability from measurement history.

The paper "simply uses the most recent measurements as a forecast for the
future" and cites forecasting research (Network Weather Service, Dinda's
host-load studies) as orthogonal-but-relevant.  We provide the paper's
last-value policy plus the two classic alternatives so the ablation bench
(`bench_ablation_predictor`) can quantify what better forecasting buys.

A predictor consumes a history of ``(timestamp, value)`` samples (oldest
first) and produces a single forecast value.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

__all__ = ["Predictor", "LastValue", "SlidingMean", "Ewma"]

Sample = tuple[float, float]


@runtime_checkable
class Predictor(Protocol):
    """Forecast the next value of a measured series."""

    def predict(self, history: Sequence[Sample]) -> float:  # pragma: no cover
        ...


class LastValue:
    """The paper's policy: the most recent measurement is the forecast."""

    def predict(self, history: Sequence[Sample]) -> float:
        if not history:
            raise ValueError("cannot predict from an empty history")
        return history[-1][1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "LastValue()"


class SlidingMean:
    """Mean of the samples inside a trailing time window.

    Parameters
    ----------
    window:
        Window length in seconds (measured back from the newest sample).
        Samples older than the window are ignored; the newest sample is
        always included.
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)

    def predict(self, history: Sequence[Sample]) -> float:
        if not history:
            raise ValueError("cannot predict from an empty history")
        newest = history[-1][0]
        cutoff = newest - self.window
        values = [v for t, v in history if t >= cutoff]
        return sum(values) / len(values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlidingMean(window={self.window})"


class Ewma:
    """Exponentially weighted moving average over the history.

    ``alpha`` is the weight of each new sample (0 < alpha <= 1); alpha=1
    degenerates to :class:`LastValue`.
    """

    def __init__(self, alpha: float) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)

    def predict(self, history: Sequence[Sample]) -> float:
        if not history:
            raise ValueError("cannot predict from an empty history")
        estimate = history[0][1]
        for _t, value in history[1:]:
            estimate += self.alpha * (value - estimate)
        return estimate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Ewma(alpha={self.alpha})"
