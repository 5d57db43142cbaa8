"""The synthetic market series in the two CSV schemas that ``qkslab ingest`` parses.

Tests and ``golden.py`` write these files to exercise the CSV parsers and the
date join; the package itself never writes a CSV of its own series.
"""
import csv
from datetime import timedelta

import numpy as np

from qkslab.data import DEFAULT_DAYS, _weekdays, synthetic_raw_series
from qkslab.seeding import mix64


def write_synthetic_csvs(index_path, gold_path, seed: int, days: int = DEFAULT_DAYS) -> None:
    """Emit the generator's series in the documented CSV schemas.

    The index file uses thousands separators, K/M volume suffixes, and
    descending date order; the gold file starts a week earlier and skips
    ~6% of dates so the join has to forward-fill.
    """
    series = synthetic_raw_series(seed, days)
    rng = np.random.default_rng(mix64(seed, 0x435356))

    def sep(v: float) -> str:
        return f"{v:,.2f}"

    def vol(v: float) -> str:
        return f"{v / 1e6:.2f}M" if v >= 1e6 else f"{v / 1e3:.2f}K"

    with open(index_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", "Price", "Open", "High", "Low", "Vol.", "Change %"])
        for i in reversed(range(len(series))):
            c = series.columns
            writer.writerow([
                series.dates[i].strftime("%m/%d/%Y"), sep(c["price"][i]), sep(c["open"][i]),
                sep(c["high"][i]), sep(c["low"][i]), vol(c["volume"][i]),
                f"{c['change_pct'][i]:.2f}%",
            ])

    lead = _weekdays(series.dates[0] - timedelta(days=9), 5)
    gold_dates = [d for d in lead if d < series.dates[0]] + list(series.dates)
    gold_rng = np.random.default_rng(mix64(seed, 0x474C44))
    by_date = {d: float(series.columns["gold_price"][i]) for i, d in enumerate(series.dates)}
    base = float(series.columns["gold_price"][0])
    with open(gold_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", "Price"])
        for i, d in enumerate(gold_dates):
            if i > 0 and gold_rng.random() < 0.06:
                continue  # simulated publication gap; the join forward-fills it
            price = by_date.get(d, base * float(np.exp(rng.standard_normal() * 0.004)))
            writer.writerow([d.strftime("%m/%d/%Y"), f"{price:.2f}"])
