"""E8 — §5's reliability arithmetic:

    "Assuming a MTBF of 30,000 hours for each storage device, a file
    system containing 10 devices could be expected to fail every 3000
    hours (about 3 times per year, on average), which is probably
    tolerable. A system with 100 devices, on the other hand, would
    average more than one failure every two weeks, which is not likely
    to be acceptable."

Analytic rows plus Monte Carlo validation (exponential lifetimes),
plus the protection-scheme loss-probability comparison that motivates
parity and shadowing.
"""

from repro.reliability import (
    HOURS_PER_WEEK,
    mtbf_table_row,
    simulate_fleet,
    simulate_protected_fleet,
    system_mtbf,
)

MTBF = 30_000.0  # "currently achieved by commercially available Winchester disks"


def e8_reliability(quick: bool) -> dict:
    """Rows: the analytic table per fleet size, the Monte Carlo rows
    (3000 trials), and P(data loss in one year) per protection scheme for
    100 devices with 24 h repair."""
    analytic = {n: mtbf_table_row(MTBF, n) for n in (1, 10, 100, 1000)}
    mc = {n: simulate_fleet(n, MTBF, n_trials=3000, seed=42) for n in (1, 10, 100)}
    protection = {
        scheme: simulate_protected_fleet(
            n_devices=100, device_mtbf_hours=MTBF, mttr_hours=24,
            scheme=scheme, n_trials=400, seed=7,
        )
        for scheme in ("none", "parity", "shadow")
    }
    rows = [{"method": "analytic", **row} for row in analytic.values()]
    rows += [
        {"method": "monte_carlo", "n_devices": n,
         "first_failure_hours": r.mean_time_to_first_failure,
         "failures_per_year": r.mean_failures_per_year}
        for n, r in mc.items()
    ]
    rows += [{"scheme": k, "loss_probability": p} for k, p in protection.items()]
    checks = {
        # the paper's two worked numbers
        "ten_devices_3000_h": abs(analytic[10]["system_mtbf_hours"] - 3000) <= 3000e-6,
        "ten_devices_about_3_per_year": abs(analytic[10]["failures_per_year"] - 2.92) <= 0.05,
        "hundred_devices_300_h": abs(analytic[100]["system_mtbf_hours"] - 300) <= 300e-6,
        "hundred_devices_more_than_1_per_2_weeks":
            analytic[100]["system_mtbf_hours"] < 2 * HOURS_PER_WEEK,
    }
    # Monte Carlo agrees with the closed form
    for n in (1, 10, 100):
        expected = system_mtbf(MTBF, n)
        checks[f"monte_carlo_matches_closed_form_n{n}"] = (
            abs(mc[n].mean_time_to_first_failure - expected) <= 0.1 * expected
        )
    # protection ordering: none is near-certain loss; parity and shadow
    # reduce it by orders of magnitude; shadow <= parity
    checks["unprotected_near_certain_loss"] = protection["none"] > 0.9
    checks["parity_below_0.25"] = protection["parity"] < 0.25
    checks["shadow_not_above_parity"] = protection["shadow"] <= protection["parity"]
    return {"rows": rows, "checks": checks}
