"""EXPERIMENTS.md: the paper's published numbers beside the measured
artifacts in ``results/``, so paper-vs-measured can be diffed table by
table. ``python -m repro.harness.tables`` rebuilds it after every run; the
section headings are the table registry's titles."""
from __future__ import annotations

import json
from pathlib import Path

__all__ = ["build_experiments"]

# ---------------------------------------------------------------------------
# The paper's numbers (ICDE 2023, Tables I–XIII), transcribed from the text.
# ---------------------------------------------------------------------------
PAPER = {
    "table02": """\
Paper Table II (wedges, massive deletion; M=200k, α=3e-6, β_m=0.8; |E| 2.99M–265M):

| graph | ARE% WSD-L | WSD-H | GPS-A | Triest | ThinkD | WRS |
|---|---|---|---|---|---|---|
| cit-PT | 0.046 | 0.051 | 0.058 | 0.077 | 0.071 | 0.062 |
| com-YT | 0.011 | 0.013 | 0.061 | 0.125 | 0.104 | 0.092 |
| soc-TW | 0.243 | 0.411 | 0.434 | 0.627 | 0.572 | 0.483 |
| web-GL | 0.041 | 0.044 | 0.117 | 0.815 | 0.670 | 0.366 |
| synthetic | 0.107 | 0.148 | 0.192 | 0.564 | 0.324 | 0.231 |

Paper MARE%: WSD-L best everywhere (0.007–0.306); ordering WSD-L < WSD-H < GPS-A < {WRS < ThinkD < Triest}.
Paper time (s): WSD-H < WSD-L < GPS-A ≪ Triest ≈ ThinkD ≈ WRS on large deletion-heavy graphs
(e.g. cit-PT 62–67s vs 187–192s); on com-YT the uniform baselines are faster (7.8–8.1s vs 9.3–9.9s).""",
    "table03": """\
Paper Table III (triangles, massive deletion):

| graph | ARE% WSD-L | WSD-H | GPS-A | Triest | ThinkD | WRS |
|---|---|---|---|---|---|---|
| cit-PT | 0.075 | 0.083 | 0.106 | 0.175 | 0.143 | 0.142 |
| com-YT | 0.048 | 0.053 | 0.073 | 0.188 | 0.109 | 0.067 |
| soc-TW | 0.404 | 0.712 | 0.893 | 1.214 | 1.056 | 0.952 |
| web-GL | 0.031 | 0.037 | 0.734 | 0.197 | 0.195 | 0.136 |
| synthetic | 2.507 | 3.124 | 3.612 | 4.293 | 3.318 | 3.143 |""",
    "table04": """\
Paper Table IV (training time, hours, massive deletion):

| graph | triangle | wedge |
|---|---|---|
| cit-HE | 16.7 | 15.9 |
| com-DB | 8.2 | 7.6 |
| soc-TX | 10.6 | 9.3 |
| web-SF | 13.5 | 12.1 |""",
    "table05": """\
Paper Table V (transferability, massive; ARE% of triangles; columns = training graph):

| test graph | cit-HE | com-DB | soc-TX | web-SF | synthetic | WSD-H |
|---|---|---|---|---|---|---|
| cit-PT | **0.076** | 0.080 | 0.077 | 0.078 | 0.081 | 0.083 |
| com-YT | 0.049 | **0.048** | 0.053 | 0.052 | 0.050 | 0.053 |
| soc-TW | 0.653 | 0.567 | **0.451** | 0.510 | 0.687 | 0.711 |
| web-GL | 0.033 | 0.036 | 0.035 | **0.032** | 0.034 | 0.037 |""",
    "table06": """\
Paper Table VI (insertion-only, triangles on cit-PT):

| metric | WSD-L | GPS | Triest | ThinkD | WRS |
|---|---|---|---|---|---|
| ARE % | **0.30** | 0.34 | 0.85 | 0.41 | 0.36 |
| MARE % | **0.14** | 0.20 | 0.66 | 0.24 | 0.22 |
| time (s) | 49.6 | 48.5 | **39.3** | 40.2 | 41.1 |""",
    "table07": """\
Paper Table VII (4-cliques, massive deletion; soc-TW omitted, as here):

| graph | ARE% WSD-L | WSD-H | GPS-A | Triest | ThinkD | WRS |
|---|---|---|---|---|---|---|
| cit-PT | 0.771 | 0.880 | 0.962 | 1.365 | 1.114 | 0.947 |
| com-YT | 0.481 | 0.551 | 0.684 | 1.330 | 1.046 | 0.822 |
| web-GL | 0.582 | 0.666 | 0.747 | 1.229 | 1.099 | 0.847 |
| synthetic | 2.843 | 3.207 | 3.582 | 3.913 | 3.764 | 3.368 |""",
    "table08": """\
Paper Table VIII (wedges, light deletion; β_l=0.2):

| graph | ARE% WSD-L | WSD-H | GPS-A | Triest | ThinkD | WRS |
|---|---|---|---|---|---|---|
| cit-PT | 0.009 | 0.010 | 0.025 | 0.062 | 0.053 | 0.035 |
| com-YT | 0.006 | 0.008 | 0.058 | 0.289 | 0.277 | 0.158 |
| soc-TW | 0.343 | 0.421 | 0.509 | 0.657 | 0.654 | 0.603 |
| web-GL | 0.042 | 0.046 | 0.077 | 0.429 | 0.347 | 0.128 |
| synthetic | 0.014 | 0.021 | 0.028 | 0.103 | 0.038 | 0.022 |""",
    "table09": """\
Paper Table IX (triangles, light deletion):

| graph | ARE% WSD-L | WSD-H | GPS-A | Triest | ThinkD | WRS |
|---|---|---|---|---|---|---|
| cit-PT | 0.171 | 0.221 | 0.257 | 0.834 | 0.293 | 0.224 |
| com-YT | 0.051 | 0.059 | 0.104 | 0.941 | 0.797 | 0.471 |
| soc-TW | 0.564 | 0.762 | 1.109 | 1.484 | 1.333 | 1.279 |
| web-GL | 0.061 | 0.069 | 0.153 | 0.591 | 0.270 | 0.301 |
| synthetic | 0.049 | 0.067 | 0.114 | 0.652 | 0.441 | 0.233 |""",
    "table10": """\
Paper Table X (4-cliques, light deletion):

| graph | ARE% WSD-L | WSD-H | GPS-A | Triest | ThinkD | WRS |
|---|---|---|---|---|---|---|
| cit-PT | 1.156 | 1.320 | 1.572 | 2.593 | 1.782 | 1.420 |
| com-YT | 1.300 | 1.563 | 1.728 | 2.856 | 2.653 | 2.295 |
| web-GL | 0.814 | 1.198 | 1.302 | 1.966 | 1.538 | 1.439 |
| synthetic | 0.834 | 0.891 | 1.043 | 1.419 | 1.247 | 1.162 |""",
    "table11": """\
Paper Table XI (training time, hours, light deletion): same magnitudes as
Table IV — several hours per (graph, pattern); exact cells are garbled in the
source text of the paper we were given.""",
    "table12": """\
Paper Table XII (transferability, light; ARE% of triangles):

| test graph | cit-HE | com-DB | soc-TX | web-SF | synthetic | WSD-H |
|---|---|---|---|---|---|---|
| cit-PT | **0.171** | 0.213 | 0.192 | 0.188 | 0.204 | 0.221 |
| com-YT | 0.055 | **0.051** | 0.059 | 0.056 | 0.058 | 0.059 |
| soc-TW | 0.681 | 0.702 | **0.576** | 0.631 | 0.732 | 0.762 |
| web-GL | 0.063 | 0.068 | 0.065 | **0.061** | 0.067 | 0.069 |""",
    "table13": """\
Paper Table XIII (ablation, ARE% of triangles):

| scenario | graph | WSD-L (Max) | WSD-L (Avg) | WSD-H |
|---|---|---|---|---|
| massive | cit-PT | **0.075** | 0.081 | 0.083 |
| massive | com-YT | **0.048** | 0.050 | 0.053 |
| massive | soc-TW | **0.400** | 0.540 | 0.710 |
| massive | web-GL | **0.031** | 0.033 | 0.037 |
| light | cit-PT | **0.171** | 0.189 | 0.221 |
| light | com-YT | **0.051** | 0.052 | 0.059 |
| light | soc-TW | **0.564** | 0.649 | 0.762 |
| light | web-GL | **0.063** | 0.045 | 0.069 |""",
}

HEADER = """\
# EXPERIMENTS — paper numbers vs measured

Generated by ``python -m repro.harness.tables`` from ``results/``, which the
same command regenerates first. All measured numbers
are means over %%N_RUNS%% sampling repetitions at the reduced scale documented in
DESIGN.md §4 (graphs ~5–25k edges, M = 5% of |E| — 15% for 4-cliques — α=3e-4,
β_m=0.5, β_l=0.2); the paper uses 100 repetitions on graphs of 2.99M–265M
edges with M=200k, so **absolute error magnitudes are not comparable — the
paper's are 1–3 orders of magnitude smaller because variance concentrates
with scale. The comparison target is the *shape*: which algorithm wins,
rough factors, and orderings.** Time is seconds per trial (C++ vs Python:
absolute values incomparable; orderings are).

## Shape summary (measured, across tables)

%%SUMMARY%%

---
"""

# The sampling repetitions of the results that ``SUMMARY`` and ``NOTES``
# quote; results at another count get a notice that the prose may not match.
PROSE_N_RUNS = 12

SUMMARY = """\
Reproduced (✓) / partially (≈) / not reproduced (✗) at reduced scale:

* ✓ **Weighted beats the GPS-A straw man**: WSD-H and WSD-L both have lower
  ARE than GPS-A in 18/20 triangle+wedge cells across both deletion
  scenarios (the 2 exceptions are wedge/light cells within noise) — the
  paper's core motivation for WSD's deletion handling (zombie slots waste
  capacity) shows exactly as predicted.
* ✓ **Triest is the weakest baseline** in 9/10 triangle cells (count-inside-
  the-sample variance), usually by 3–5×, as in the paper.
* ✓ **RL refines the heuristic**: WSD-L ≤ WSD-H in 7/10 triangle cells
  (e.g. cit-PT massive 14.5 vs 21.4; strict improvement in 6), matching the
  paper's WSD-L < WSD-H ordering; the improvement is delivered by the same
  mechanism (learned weights over the Eq. 19–22 state, warm-started at the
  heuristic, validation-selected — DESIGN.md §4).
* ≈ **WSD vs the uniform RP baselines (triangles)**: WSD-L is best or within
  noise of best on cit-PT/soc-TW/com-YT (massive), but ThinkD/WRS win some
  cells (e.g. web-GL massive) — at 12 runs and 5% sampling the gaps between
  the good estimators are inside Monte-Carlo noise, whereas the paper's
  100-run, 1000×-larger streams resolve them.
* ✗ **Wedges**: ThinkD/WRS clearly beat the weighted samplers (≈1–2% vs
  4–9% ARE). At our scale most wedge instances are completed by an edge
  whose own inclusion probability is far below 1 under weighted ranks, while
  ThinkD/WRS count each arriving edge's wedges at probability ~1; at paper
  scale (weights ≈ 1 almost everywhere because a 1.2% sample sees few
  completions) all algorithms sit within 2× of each other.
* ≈ **4-cliques**: only the synthetic graph has enough 4-cliques at our
  scale (≈400k) for meaningful estimates; the real-graph proxies end with
  62–1966, so all estimators sit near 100% ARE there (the paper's counts are
  orders of magnitude larger). On synthetic, ThinkD < WSD-L < WRS < WSD-H <
  Triest < GPS-A.
* ≈ **Transferability**: same-category training is best (or tied-best) for
  2/4 test graphs per scenario, and some cross-category policies beat WSD-H —
  directionally as the paper — but with visible noise; the paper's diagonal
  dominance is clean.
* ✗ **Ablation Max vs Avg**: statistically indistinguishable at our scale
  (Avg even wins some cells); the paper reports a consistent small edge for
  Max.
* ✗ **Runtime ordering**: in the paper WSD beats Triest/ThinkD/WRS on
  deletion-heavy streams because its per-deletion cost is O(log M) against
  their O(M) array bookkeeping in the authors' C++ implementations. Our
  Python baselines use dict-based O(1) deletion, so that constant-factor
  advantage does not transfer: Triest/ThinkD are fastest, WSD-H ≈ WRS ≈
  GPS-A, and WSD-L pays ~2× for per-insertion state construction (the paper
  also reports WSD-L slower than WSD-H).
"""

NOTES: dict[str, str] = {
    "table01": "Proxy sizes are ~1000× smaller than Table I; train/test "
               "pairing and the size ordering (test > train per category) "
               "are preserved.",
    "table02": "✗ for the weighted-vs-uniform claim at this scale (see "
               "summary); ✓ WSD-L ≤ WSD-H in 3/5 rows (2 within noise), "
               "✓ GPS-A is the worst weighted variant everywhere.",
    "table03": "✓ WSD-L best on cit-PT and within noise of best on soc-TW; "
               "✓ Triest worst everywhere; ✓ GPS-A always behind WSD-H/WSD-L; "
               "≈ ThinkD/WRS win com-YT/web-GL cells (noise at 12 runs).",
    "table04": "Ours are seconds, the paper's are hours — training cost "
               "scales with stream length × iterations, and our streams are "
               "~1000× shorter with 2×1000 updates. The paper's per-graph "
               "ordering (cit-HE slowest) is not resolved at our durations.",
    "table05": "≈ diagonal (same-category) is best for cit-PT and tied-best "
               "for soc-TW; several off-diagonal policies also beat WSD-H, "
               "as in the paper; com-YT/web-GL diagonals lose to a "
               "cross-category policy (noise).",
    "table06": "✓ WSD-L < GPS < WRS < Triest as in the paper; ThinkD lands "
               "between WSD-L and WSD-H here rather than behind them; time "
               "ordering ✓ (WSD-L slowest, Triest fastest — the paper also "
               "has WSD-L slowest in this scenario).",
    "table07": "Meaningful only on synthetic at our scale (real proxies end "
               "with 62–120 4-cliques after the massive deletions — relative "
               "error saturates near 100% for every algorithm). On synthetic: "
               "WSD-L (28.0) beats WSD-H (38.8), WRS, Triest and GPS-A; "
               "ThinkD wins the cell.",
    "table08": "Same deviation as Table II (wedges favour count-then-sample "
               "at our sampling ratio); WSD-L ≤ WSD-H holds, GPS-A worst.",
    "table09": "✓ WSD-L ≤ WSD-H in 4/5 rows (one tie, cit-PT within noise); "
               "✓ Triest worst everywhere by 2–5×; ✓ GPS-A behind WSD-H "
               "everywhere; ≈ WRS wins the soc-TW/cit-PT cells.",
    "table10": "As Table VII: saturated on the real proxies; on synthetic "
               "ThinkD < WRS < WSD-L = WSD-H < Triest < GPS-A.",
    "table11": "Seconds at our scale; see Table IV note.",
    "table12": "≈ soc-TW diagonal is best (12.2, as the paper); com-DB "
               "transfers surprisingly well to cit-PT/com-YT/soc-TW; "
               "cross-category policies beat WSD-H in many cells ✓.",
    "table13": "✗ Max vs Avg is inside noise at our scale — Avg ties or wins "
               "several cells, unlike the paper's consistent Max edge. Both "
               "variants still improve on WSD-H in 6/8 rows ✓.",
}


def _read(path: Path) -> str | None:
    if not path.exists():
        return None
    text = path.read_text().strip()
    if text.startswith("# "):  # demote artifact H1 titles inside sections
        first, _, rest = text.partition("\n")
        text = f"**{first[2:]}**\n{rest}"
    return text


def _n_runs(tables: dict, results_dir: Path) -> set[int]:
    """The sampling repetitions behind the measured means: every distinct
    ``n_runs`` in the tables' tidy results."""
    runs = set()
    for tid in tables:
        path = results_dir / f"{tid}_tidy.json"
        if path.exists():
            runs |= {row["n_runs"] for row in json.loads(path.read_text()) if "n_runs" in row}
    return runs


def build_experiments(tables: dict, results_dir: Path) -> str:
    """EXPERIMENTS.md's text. Per registry entry (``tables`` maps an id to a
    ``harness.tables.Table``), in id order: its title, the paper's numbers,
    the measured pivots (the tidy table where there are none) and the shape
    check."""
    runs = _n_runs(tables, results_dir)
    shown = "/".join(map(str, sorted(runs))) or "no"
    summary = SUMMARY.strip()
    if runs - {PROSE_N_RUNS}:
        summary = (
            f"*The summary and shape checks were written for {PROSE_N_RUNS}-run results; "
            f"these results have {shown} runs, so the cells they quote may differ.*\n\n"
        ) + summary
    header = HEADER.replace("%%N_RUNS%%", shown)
    parts = [header.replace("%%SUMMARY%%", summary)]
    for tid, table in sorted(tables.items()):
        parts.append(f"\n## {table.title}\n")
        if tid in PAPER:
            parts.append(PAPER[tid] + "\n")
        tidy, *pivots = (_read(results_dir / f"{n}.md") for n in table.artifacts(tid))
        ours = [t for t in pivots if t] or [t for t in [tidy] if t]
        if ours:
            parts.append("\nMeasured:\n\n" + "\n\n".join(ours) + "\n")
        else:
            run = f"python -m repro.harness.tables {tid}"
            parts.append(f"\n*(no measured artifact found — run ``{run}``)*\n")
        if tid in NOTES:
            parts.append(f"\n**Shape check.** {NOTES[tid]}\n")
    return "".join(parts)

