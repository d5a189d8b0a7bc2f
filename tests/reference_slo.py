"""The burn-rate loop of ``repro.serving.slo.evaluate_slo`` as it stood
before it kept moving window starts, kept as the test oracle.

At every completion it rescans every earlier outcome for each window
and for the rolling attainment, so it is quadratic in completions.
``tests/test_serving_slo.py`` pins ``evaluate_slo``'s alerts, rolling
attainment and final burn equal to it on generated outcome streams.
"""

from __future__ import annotations

from repro.serving.slo import SloAlert, SloObjective


def reference_burn_alerts(
    outcomes: list[tuple[int, bool]], objective: SloObjective, clock_hz: float
) -> tuple[list[SloAlert], list[tuple[int, float]], dict]:
    """(alerts, rolling attainment series, final burn per window)."""

    def recent(i: int, window_s: float) -> list[bool]:
        start_cycle = outcomes[i][0] - window_s * clock_hz
        return [ok for cycle, ok in outcomes[: i + 1] if cycle > start_cycle]

    alerts: list[SloAlert] = []
    attainment_series: list[tuple[int, float]] = []
    slowest = max(objective.windows, key=lambda w: w.window_s)
    firing = False
    final_burn = {w.name: 0.0 for w in objective.windows}
    for i, (cycle, _) in enumerate(outcomes):
        burns = {}
        for w in objective.windows:
            oks = recent(i, w.window_s)
            burns[w.name] = oks.count(False) / len(oks) / (1.0 - objective.target)
        final_burn = burns
        rolled = recent(i, slowest.window_s)
        attainment_series.append((cycle, sum(rolled) / len(rolled)))
        now_firing = all(
            burns[w.name] >= w.burn_threshold for w in objective.windows
        )
        if now_firing and not firing:
            alerts.append(SloAlert(cycle=cycle, burn=burns))
        firing = now_firing
    return alerts, attainment_series, final_burn
