import numpy as np
import pytest

from tvroad import solver


@pytest.fixture
def write_records(tmp_path):
    """Writer for ingestion CSVs built from VelocitySeries objects.

    Integer day ids become ISO dates in January 2026; the optional
    length_m map attaches a road_length_m column.
    """

    def _write(series_list, name="records.csv", length_m=None):
        header = "road_id,day,slice,velocity"
        if length_m is not None:
            header += ",road_length_m"
        rows = [header]
        for series in series_list:
            day = series.day if isinstance(series.day, str) else f"2026-01-{series.day:02d}"
            for i, v in enumerate(series.values, start=1):
                row = f"{series.road_id},{day},{i},{float(v)!r}"
                if length_m is not None:
                    row += f",{length_m.get(series.road_id, '')}"
                rows.append(row)
        path = tmp_path / name
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    return _write


@pytest.fixture
def poison_rows(monkeypatch):
    """Make the solver fail on every series that starts at a given value:
    its path walk, alone or in a lockstep stack, returns a non-finite
    solution at every budget, which the solve reports as
    FloatingPointError.  Other series are solved as before."""

    def _poison(first_value):
        walk, walk_stack = solver._walk, solver._walk_stack

        def poisoned(u0, budgets, max_iters, floor=0.0, h=1.0):
            walks, sigma_floor = walk(u0, budgets, max_iters, floor, h)
            if u0[0] != first_value:
                return walks, sigma_floor
            return [(np.full(u0.size, np.nan), trace) for _, trace in walks], sigma_floor

        def poisoned_stack(u, heads, budgets, max_iters):
            x, iterations, collapsed, last = walk_stack(u, heads, budgets, max_iters)
            for lo, hi in zip(heads[:-1], heads[1:]):
                if u[lo] == first_value:
                    x[lo:hi] = np.nan
            return x, iterations, collapsed, last

        monkeypatch.setattr(solver, "_walk", poisoned)
        monkeypatch.setattr(solver, "_walk_stack", poisoned_stack)

    return _poison
