"""EXPERIMENTS.md against the committed scale-1.0 report.

Every measured value in EXPERIMENTS.md's tables (and every paper value
the report also prints) must equal the number in ``results_scale1.txt``,
whose own digest ``tests/test_golden.py`` pins.  Nothing is re-simulated:
both files are parsed.  Each markdown table in the document needs a
checker here, so a new table cannot land unchecked.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NODES = ("70", "100", "130", "180")


def _split(line):
    return [cell for cell in re.split(r"\s{2,}", line.strip()) if cell]


def parse_report(text):
    """``{(section, cache): (header, {label: cells})}`` for every table.

    ``cache`` is the ``icache``/``dcache`` word of the table's title, or
    None for tables that cover neither.
    """
    tables = {}
    section = None
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = re.match(r"== (\w+): ", line)
        if match:
            section = match.group(1)
            continue
        if index + 2 < len(lines) and re.fullmatch(r"-{3,}", lines[index + 2]):
            cache = re.search(r"\b([id]cache)\b", line)
            header = _split(lines[index + 1])
            rows = {}
            for row in lines[index + 3:]:
                if not row.strip():
                    break
                cells = _split(row)
                rows[cells[0]] = cells[1:]
            key = (section, cache.group(1) if cache else None)
            assert key not in tables, key
            tables[key] = (header, rows)
    return tables


def parse_doc(text):
    """``[(heading, rows)]`` for every markdown table, in document order."""
    tables = []
    heading = None
    rows = None
    for line in text.splitlines():
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
        if line.startswith("|"):
            cells = [c.strip().replace("**", "") for c in line.strip("|").split("|")]
            if rows is None:
                rows = []
                tables.append((heading, rows))
            if not all(re.fullmatch(r"-+", c) for c in cells):
                rows.append(cells)
        else:
            rows = None
    return tables


REPORT = parse_report((ROOT / "results_scale1.txt").read_text())
DOC = parse_doc((ROOT / "EXPERIMENTS.md").read_text())


def cell(section, cache, label, column):
    """One report cell, by row label and column header (or index)."""
    header, rows = REPORT[(section, cache)]
    index = column if isinstance(column, int) else header.index(column) - 1
    return rows[label][index]


def number(text):
    """The single number in a doc cell, or None for approximate cells."""
    text = text.replace("%", "").strip()
    if re.fullmatch(r"-?\d[\d ]*(\.\d+)?", text):
        return float(text.replace(" ", ""))
    return None


def remaining(saving):
    return round(100.0 - float(saving), 1)


def assert_cell(doc_cell, report_cell):
    """A numeric doc cell equals the report; otherwise the report has none."""
    value = number(doc_cell)
    if value is None:
        assert report_cell == "-", (doc_cell, report_cell)
    else:
        assert value == float(report_cell), (doc_cell, report_cell)


# ----------------------------------------------------------------------
# One checker per document table, keyed by its heading.
# ----------------------------------------------------------------------
def check_regeneration(rows):
    header, *body = rows
    assert header == ["where", "old", "new"]
    for where, _old, new in body:
        match = re.fullmatch(r"Figure 9 D-cache (\S+ \S+) intervals", where)
        if match:
            assert float(new) == float(
                cell("figure9", "dcache", match.group(1).replace("∞", "+inf"),
                     "intervals")
            )
        else:
            assert where == "Prefetch-B D-cache stalls (ppm)"
            assert float(new) == float(
                cell("futurework_tradeoff", "dcache", "6 (Prefetch-B)", 1)
            )
    return len(body)


def check_table1(rows):
    header, *body = rows
    assert header[0] == "node"
    for node, *values in body:
        report = REPORT[("table1", None)][1][node.replace(" ", "")]
        assert [float(v) for v in values] == [float(v) for v in report[:4]]
    return len(body)


def check_figure8(rows):
    header, *body = rows
    assert header == ["scheme", "I measured", "I paper", "D measured", "D paper"]
    for scheme, i_measured, i_paper, d_measured, d_paper in body:
        for cache, measured, paper in (
            ("icache", i_measured, i_paper),
            ("dcache", d_measured, d_paper),
        ):
            assert number(measured) == float(cell("figure8", cache, "average", scheme))
            assert_cell(paper, cell("figure8", cache, "paper avg", scheme))
    return len(body)


def check_figure7(rows):
    header, *body = rows
    assert header == ["θ", "I sleep", "I hybrid", "D sleep", "D hybrid"]
    for theta, i_sleep, i_hybrid, d_sleep, d_hybrid in body:
        for cache, sleep, hybrid in (
            ("icache", i_sleep, i_hybrid),
            ("dcache", d_sleep, d_hybrid),
        ):
            assert number(sleep) == float(cell("figure7", cache, theta, "Sleep"))
            assert number(hybrid) == float(
                cell("figure7", cache, theta, "Sleep+Drowsy")
            )
    return len(body)


def check_table2(cache):
    def check(rows):
        header, *body = rows
        assert header == ["scheme"] + [f"{node} nm" for node in NODES]
        for scheme, *pairs in body:
            for node, pair in zip(NODES, pairs):
                measured, paper = (part.strip() for part in pair.split("/"))
                column = f"{node}nm"
                assert number(measured) == float(
                    cell("table2", cache, f"{scheme} (measured)", column)
                )
                assert number(paper) == float(
                    cell("table2", cache, f"{scheme} (paper)", column)
                )
        return len(body)

    return check


def check_figure9(rows):
    header, *body = rows
    columns = ["P-NL", "P-stride", "NP"]
    assert header == [""] + [
        f"{c} {side}" for c in columns for side in ("measured", "paper")
    ]
    for label, *values in body:
        cache = {"I-cache": "icache", "D-cache": "dcache"}[label]
        for column, measured, paper in zip(columns, values[0::2], values[1::2]):
            assert number(measured) == float(
                cell("figure9", cache, "total (suite avg)", column)
            )
            assert number(paper) == float(cell("figure9", cache, "paper total", column))
    return len(body)


def check_headline(rows):
    header, *body = rows
    assert header == ["quantity", "paper", "measured"]
    table = {quantity: (paper, measured) for quantity, paper, measured in body}

    def fig8(cache, row, scheme):
        return cell("figure8", cache, row, scheme)

    for cache, label in (("icache", "I-cache"), ("dcache", "D-cache")):
        paper, measured = table[f"{label} leakage remaining under the oracle"]
        assert number(measured) == remaining(fig8(cache, "average", "OPT-Hybrid"))
        assert number(paper) == remaining(fig8(cache, "paper avg", "OPT-Hybrid"))
    _, measured = table["Prefetch-guided D-cache savings"]
    assert number(measured) == float(fig8("dcache", "average", "Prefetch-B"))
    # "Known techniques" is the implementable decay scheme, Sleep(10K).
    for cache, label in (("icache", "I"), ("dcache", "D")):
        _, measured = table[f"reduction vs known techniques ({label})"]
        decay = remaining(fig8(cache, "average", "Sleep(10K)"))
        oracle = remaining(fig8(cache, "average", "OPT-Hybrid"))
        values = [float(v) for v in re.findall(r"\d+(?:\.\d+)?", measured)]
        assert values[0] == round(decay / oracle, 1), measured
        if len(values) > 1:
            assert values[1:] == [decay, oracle], measured
    return len(body)


def check_frontier(rows):
    header, *body = rows
    assert header == [
        "NP threshold (cycles)", "I savings %", "I stalls (ppm)",
        "D savings %", "D stalls (ppm)",
    ]
    for threshold, i_saving, i_stall, d_saving, d_stall in body:
        label = threshold.replace("= ", "").replace(" 000", "000")
        for cache, saving, stall in (
            ("icache", i_saving, i_stall),
            ("dcache", d_saving, d_stall),
        ):
            assert number(saving) == float(cell("futurework_tradeoff", cache, label, 0))
            assert number(stall) == float(cell("futurework_tradeoff", cache, label, 1))
    return len(body)


CHECKERS = {
    "EXPERIMENTS — paper vs. measured": [check_regeneration],
    "Table 1 — inflection points (exact)": [check_table1],
    "Figure 8 — the six schemes at 70 nm (benchmark averages, % savings)": [
        check_figure8
    ],
    "Figure 7 — hybrid vs pure sleep over the sleep threshold": [check_figure7],
    "Table 2 — technology scaling (% savings)": [
        check_table2("icache"), check_table2("dcache"),
    ],
    "Figure 9 — prefetchability of intervals (% of interval count)": [
        check_figure9
    ],
    "Headline (abstract) check": [check_headline],
    "§5.2 future work — the Prefetch-A..B frontier (measured, scale 1.0)": [
        check_frontier
    ],
}


def _cases():
    seen = {}
    for heading, rows in DOC:
        index = seen.get(heading, 0)
        seen[heading] = index + 1
        yield pytest.param(heading, index, rows, id=f"{heading[:24]}#{index}")


def test_every_doc_table_has_a_checker():
    counts = {}
    for heading, _ in DOC:
        counts[heading] = counts.get(heading, 0) + 1
    assert counts == {heading: len(checks) for heading, checks in CHECKERS.items()}


@pytest.mark.parametrize("heading, index, rows", list(_cases()))
def test_doc_table_matches_the_scale_1_report(heading, index, rows):
    assert CHECKERS[heading][index](rows) == len(rows) - 1 > 0


# ----------------------------------------------------------------------
# Prose: the bullet list under Figure 8.
# ----------------------------------------------------------------------
def figure8_bullets():
    """The Figure 8 section's bullet list, whitespace-normalised."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("\n## Figure 8 ", 1)[1].split("\n## ", 1)[0]
    bullets = section.split("Everything the paper concludes", 1)[1]
    return " ".join(bullets.split("\n\n", 2)[1].split())


def figure8_gap(cache, row, high, low, digits):
    """``high - low`` of one Figure 8 report row, rounded like the prose."""
    value = float(cell("figure8", cache, row, high)) - float(
        cell("figure8", cache, row, low)
    )
    return round(value, digits) if digits else float(round(value))


FIGURE8_CLAIMS = [
    # (prose pattern, [(cache, row, high, low, digits) per captured number])
    (
        r"measured ([\d.]+) % I / ([\d.]+) % D; paper ([\d.]+) % / ([\d.]+) %",
        [
            ("icache", "average", None, "OPT-Hybrid", 1),
            ("dcache", "average", None, "OPT-Hybrid", 1),
            ("icache", "paper avg", None, "OPT-Hybrid", 1),
            ("dcache", "paper avg", None, "OPT-Hybrid", 1),
        ],
    ),
    (
        r"decay scheme by ~(\d+) points \(I\) / ~(\d+) points \(D\) — "
        r"paper: (\d+) / (\d+)",
        [
            ("icache", "average", "OPT-Hybrid", "Sleep(10K)", 0),
            ("dcache", "average", "OPT-Hybrid", "Sleep(10K)", 0),
            ("icache", "paper avg", "OPT-Hybrid", "Sleep(10K)", 0),
            ("dcache", "paper avg", "OPT-Hybrid", "Sleep(10K)", 0),
        ],
    ),
    (
        r"oracle within ([\d.]+) % \(I\) / ([\d.]+) % \(D\)",
        [
            ("icache", "average", "OPT-Hybrid", "Prefetch-B", 1),
            ("dcache", "average", "OPT-Hybrid", "Prefetch-B", 1),
        ],
    ),
    (
        r"beats Sleep\(10K\) by (\d+) \(I\) / (\d+) \(D\) points",
        [
            ("icache", "average", "Prefetch-B", "Sleep(10K)", 0),
            ("dcache", "average", "Prefetch-B", "Sleep(10K)", 0),
        ],
    ),
]


@pytest.mark.parametrize(
    "pattern, sources",
    FIGURE8_CLAIMS,
    ids=["remaining", "hybrid-over-decay", "prefetch-b-gap", "prefetch-b-over-sleep"],
)
def test_figure8_prose_matches_the_scale_1_report(pattern, sources):
    match = re.search(pattern, figure8_bullets())
    assert match, pattern
    for text, (cache, row, high, low, digits) in zip(match.groups(), sources):
        if high is None:  # remaining leakage: 100 - savings
            expected = remaining(cell("figure8", cache, row, low))
        else:
            expected = figure8_gap(cache, row, high, low, digits)
        assert float(text) == expected, (pattern, text, expected)


def test_figure8_prose_paper_gaps_match_the_report_note():
    # The report's own note carries the paper's Prefetch-B gaps.
    note = re.search(
        r"note: Prefetch-B approaches OPT-Hybrid within ([\d.]+)% \(I\) / "
        r"([\d.]+)% \(D\); paper: ([\d.]+)% / ([\d.]+)%",
        (ROOT / "results_scale1.txt").read_text(),
    )
    prose = re.search(
        r"oracle within ([\d.]+) % \(I\) / ([\d.]+) % \(D\) — "
        r"paper: ([\d.]+) % / ([\d.]+) %",
        figure8_bullets(),
    )
    assert note and prose
    assert [float(v) for v in prose.groups()] == [float(v) for v in note.groups()]


def test_figure8_prose_scheme_ordering_holds_per_benchmark():
    # "OPT-Hybrid ≥ OPT-Sleep(10K) ≥ Sleep(10K) ≥ OPT-Drowsy on every benchmark"
    assert "OPT-Hybrid ≥ OPT-Sleep(10K) ≥ Sleep(10K) ≥ OPT-Drowsy on every" in (
        figure8_bullets()
    )
    order = ["OPT-Hybrid", "OPT-Sleep(10K)", "Sleep(10K)", "OPT-Drowsy"]
    for cache in ("icache", "dcache"):
        _, rows = REPORT[("figure8", cache)]
        benchmarks = [label for label in rows if label not in ("average", "paper avg")]
        assert len(benchmarks) == 6
        for benchmark in benchmarks:
            values = [float(cell("figure8", cache, benchmark, s)) for s in order]
            assert values == sorted(values, reverse=True), (cache, benchmark)


# ----------------------------------------------------------------------
# Prose: the Ablations bullet list.  Differences are taken in tenths of a
# point, the report's printed precision, so no float rounding intrudes.
# ----------------------------------------------------------------------
def ablation_bullets():
    """``{bold title: body}`` of the Ablations bullets, whitespace-normalised."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    section = text.split("\n## Ablations ", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in section.split("\n* ")[1:]:
        title, body = re.match(r"\*\*(.+?)\*\*(.*)", bullet, re.S).groups()
        bullets[title] = " ".join(body.replace("**", "").split())
    return bullets


def claim(pattern, body):
    """The numbers one prose pattern captures; the pattern must match."""
    match = re.search(pattern, body)
    assert match, pattern
    return match.groups()


def tenths(text):
    return round(float(text) * 10)


def drops(base, values):
    """Per-cache savings lost from ``base`` to ``values``, in tenths."""
    return [tenths(b) - tenths(v) for b, v in zip(base, values)]


def check_dead_intervals(body):
    (stated,) = claim(
        r"changes the hybrid limit by \+([\d.]+) points on both caches", body
    )
    _, rows = REPORT[("ablation_dead_intervals", None)]
    for cache in ("icache", "dcache"):
        uniform, dead_aware, delta = rows[cache]
        assert tenths(dead_aware) - tenths(uniform) == tenths(delta)
        assert tenths(delta) == tenths(stated), cache


def check_ramps(body):
    b_from, b_to, bound = claim(
        r"moves b from (\d+) to (\d+) and the hybrid limit by ≤([\d.]+) points",
        body,
    )
    _, rows = REPORT[("ablation_ramps", None)]
    assert [rows["trapezoidal"][1], rows["step"][1]] == [b_from, b_to]
    moves = [abs(d) for d in drops(rows["trapezoidal"][2:], rows["step"][2:])]
    # The stated bound is the largest move, not merely above it.
    assert max(moves) == tenths(bound), moves


def check_decay_counter(body):
    slope, unit, default, cost = claim(
        r"loses ~(\d+) point per (\d+) % of always-on counter leakage; "
        r"the ([\d.]+) % default costs ([\d.]+) points",
        body,
    )
    _, rows = REPORT[("ablation_decay_counter", None)]
    base = rows["0.0%"]
    for label, values in rows.items():
        overhead = float(label.rstrip("%"))
        for lost in drops(base, values) if overhead else []:
            assert round(lost / 10 * float(unit) / overhead) == int(slope), label
    assert drops(base, rows[f"{float(default):.1f}%"]) == [tenths(cost)] * 2


def check_inflection(body):
    near, percent, far, factor = claim(
        r"the hybrid moves ≤([\d.]+) points under a (\d+) % threshold "
        r"perturbation and only ~([\d.]+) points at (\d+)×b",
        body,
    )
    _, rows = REPORT[("ablation_inflection", None)]

    def row(multiple):
        label = f"{multiple:.2f} x b"
        return next(v for k, v in rows.items() if k.startswith(label))

    assert max(drops(row(1.0), row(1 + int(percent) / 100))) == tenths(near)
    # "~X" is the mean over both caches, rounded half up to a tenth.
    lost = drops(row(1.0), row(float(factor)))
    assert (2 * sum(lost) + len(lost)) // (2 * len(lost)) == tenths(far), lost


ABLATION_CHECKERS = {
    "Dead intervals": check_dead_intervals,
    "Ramp shape": check_ramps,
    "Decay counter": check_decay_counter,
    "Inflection perturbation": check_inflection,
}


def test_every_ablation_bullet_has_a_checker():
    assert list(ablation_bullets()) == list(ABLATION_CHECKERS)


@pytest.mark.parametrize("title", list(ABLATION_CHECKERS))
def test_ablation_prose_matches_the_scale_1_report(title):
    ABLATION_CHECKERS[title](ablation_bullets()[title])
