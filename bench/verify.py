"""Correctness checks of the workloads' outputs.

Each check compares against an independent computation or a property the
method must have, never against a stored copy of an earlier output.  Each
returns a list of problems; an empty list is a pass.  They take plain
data, so the benchmark's tests can plant an error and see it caught.
"""

from __future__ import annotations

from pathlib import Path

from cache import import_klbasis

kb = import_klbasis()

LOGS = ("positivity_log", "positivity_verbose_log", "error_log")


def scan_problems(y: int, info: dict) -> list[str]:
    """A column scan (klbasis.checks.column_summary) must find no
    negative and no non-unimodal structure constant."""
    out = [f"h({x},{y},{z}) = {p} has a negative coefficient" for x, z, p in info["bad_negative"]]
    out += [f"h({x},{y},{z}) = {p} is not unimodal" for x, z, p in info["bad_unimodal"]]
    return out


def row0_problems(y: int, row0: dict[int, str]) -> list[str]:
    """c_e c_y = c_y: row 0 of column y is {y: 1}."""
    return [] if row0 == {y: "1"} else [f"row 0 of column {y} is {row0}, not {{{y}: 1}}"]


def symmetry_problems(rows: dict[int, dict[int, dict[int, str]]], inv: dict[int, int]) -> list[str]:
    """h_{x,y,z} = h_{y^-1,x^-1,z^-1}, for every pair (a, b) of computed
    columns with x = a^-1 and y = b: row a^-1 of column b, its z mapped to
    z^-1, equals row b^-1 of column a.

    ``rows[y][x]`` maps z to h_{x,y,z} in canonical text; ``inv`` holds
    the inverse of every element that appears."""
    out = []
    for a in rows:
        for b in rows:
            lhs = {inv[z]: p for z, p in rows[b][inv[a]].items()}
            rhs = rows[a][inv[b]]
            if lhs != rhs:
                diff = sorted(z for z in set(lhs) | set(rhs) if lhs.get(z) != rhs.get(z))
                out.append(
                    f"h({inv[a]},{b},z) != h({inv[b]},{a},z^-1) for z^-1 in {diff[:5]}"
                )
    return out


def ptable_problems(pairs) -> tuple[list[str], int, int]:
    """Every stored P_{x,y} has non-negative coefficients and constant
    term 1.  ``pairs`` yields (x, y, P); returns the problems, the number
    of pairs and the number of distinct P among them."""
    out = []
    seen = set()
    n = 0
    for x, y, p in pairs:
        n += 1
        seen.add(p)
        if p.coeff(0) != 1 or any(c < 0 for c in p.coeffs):
            if len(out) < 20:
                out.append(f"P({x},{y}) = {p} is not a polynomial with constant term 1 "
                           "and non-negative coefficients")
    return out, n, len(seen)


def oracle_problems(store, ys) -> list[str]:
    """c_y from the P table equals c_y rebuilt by the bar-solve."""
    return [
        f"c_{y} from the P table differs from the bar-solve oracle"
        for y in ys
        if kb.c_in_t_basis(store, y) != kb.c_in_t_basis_oracle(store.g, y)
    ]


def log_problems(got: Path, want: Path) -> list[str]:
    """The three logs of a run are byte-identical to the reference run's,
    and error_log is empty."""
    out = []
    for name in LOGS:
        a = (got / name).read_bytes()
        b = (want / name).read_bytes()
        if a != b:
            i = next((k for k in range(min(len(a), len(b))) if a[k] != b[k]), min(len(a), len(b)))
            out.append(f"{name} differs from the uninterrupted run at byte {i}")
    if (got / "error_log").stat().st_size:
        out.append("error_log is not empty")
    return out


def column_route(store, row) -> dict:
    """sum_z h_{x,y,z} c_z, expanded in the t-basis."""
    out: dict = {}
    for z, h in row.items():
        hz = h.expand()
        for w, p in kb.c_in_t_basis(store, z).items():
            term = p * hz
            out[w] = term if w not in out else out[w] + term
    return {w: p for w, p in out.items() if p}


def tcombo_problems(store, col, x: int) -> list[str]:
    """c_x c_y multiplied out in the t-basis equals the column's row x
    expanded in the t-basis."""
    y = col.y
    direct = kb.tcombo_mult(store.g, kb.c_in_t_basis(store, x), kb.c_in_t_basis(store, y))
    direct = {w: p for w, p in direct.items() if p}
    if direct != column_route(store, col.row_polys(x)):
        return [f"c_{x} c_{y}: the t-basis product differs from the column route"]
    return []
