"""Ablations of LRSyn's design choices.

The paper's prose motivates three mechanisms without table-level ablation;
this bench quantifies each:

* the **blueprint check** of Algorithm 1 (Section 2.2: "Otherwise, we look
  for other extraction programs...") — disabled by setting the distance
  threshold to 1.0;
* **hierarchical landmarks** (Section 6.1) — disabled by skipping the
  ``maybe_hierarchical`` upgrade;
* **layout-conditional strategies** (Section 1: value extraction is
  "conditional on both the landmark and the layout of the identified
  region") — disabled by forcing a single layout group per cluster.

The first two run as the ``ablations`` experiment of the ``repro-shard``
registry (:mod:`repro.harness.ablations`) — through the harness method
layer, so the program store and every ``REPRO_*`` knob apply, and
synthesis failures surface as NaN *only* for ``SynthesisFailure`` (the
old bench swallowed every exception, so a store or schema bug read as
"ablation hurt F1").  The layout study stays local: its corpus is a
purpose-built synthetic, not a dataset.
"""

from repro.harness.reporting import render_table
from repro.html.domain import HtmlDomain

from benchmarks.common import ablations_results, emit


class MergedLayoutDomain(HtmlDomain):
    """HTML domain with layout-conditional synthesis switched off."""

    layout_conditional = False


def _setting_results(results, mechanism):
    return [r for r in results if r.setting == mechanism]


def test_ablation_blueprint_check(benchmark):
    """Without the blueprint gate, look-alike landmark occurrences leak.

    On SalesInvoice forms the ``RefNo`` landmark "Reference No" is a
    substring of the "Customer Reference No" label, so ``Locate`` returns
    both boxes; only the blueprint comparison rejects the wrong one.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by_method = {
        r.method: r
        for r in _setting_results(ablations_results(), "blueprint")
        if r.field == "RefNo"
    }
    gated = by_method["LRSyn"]
    ungated = by_method["LRSyn[no-blueprint]"]
    table = render_table(
        ["Measure", "With blueprint check", "Without"],
        [
            ["SalesInvoice.RefNo F1", f"{gated.f1:.2f}", f"{ungated.f1:.2f}"],
            ["SalesInvoice.RefNo precision",
             f"{gated.precision:.2f}", f"{ungated.precision:.2f}"],
        ],
        title="Ablation: Algorithm 1's blueprint check (image domain)",
    )
    emit("ablation_blueprint_check", table)
    assert gated.f1 > ungated.f1
    assert gated.precision > ungated.precision


def test_ablation_hierarchical_landmarks(benchmark):
    """Without Section 6.1, the car section's 'Depart:' leaks into DTime."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = _setting_results(ablations_results(), "hierarchy")
    rows = []
    for field_name in ("DTime", "DDate"):
        by_method = {
            r.method: r.f1 for r in results if r.field == field_name
        }
        with_hier = by_method["LRSyn"]
        without = by_method["LRSyn[flat]"]
        rows.append([f"getthere.{field_name}", f"{with_hier:.2f}",
                     f"{without:.2f}"])
        assert with_hier >= without
        assert with_hier >= 0.99
    table = render_table(
        ["Field task", "Hierarchical", "Flat"],
        rows,
        title="Ablation: hierarchical landmarks (Section 6.1)",
    )
    emit("ablation_hierarchy", table)
    # At least one of the ambiguous-landmark fields must degrade.
    flats = [float(row[2]) for row in rows]
    assert min(flats) < 0.995


def test_ablation_layout_conditional(benchmark):
    """One strategy per ROI layout vs a single merged strategy.

    Built on a corpus whose ROI genuinely has two layouts: the value sits
    one cell after the landmark in layout A and two cells after (behind a
    terminal label) in layout B.  Layout-conditional synthesis produces one
    strategy per layout; merged synthesis cannot find a consistent selector
    and fails or degrades.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.core.document import (
        Annotation,
        AnnotationGroup,
        SynthesisFailure,
        TrainingExample,
    )
    from repro.core.metrics import score_corpus as score
    from repro.core.synthesis import lrsyn
    from repro.html.parser import parse_html

    def email(time, layout_b):
        # Layout B inserts a "Meal" cell between landmark and value; "Meal"
        # also appears in the header row of every document, so it is a
        # cluster-wide common value and the ROI blueprints can tell the two
        # layouts apart.
        middle = "<td>Meal</td>" if layout_b else ""
        return parse_html(
            "<html><body><div>hi</div><table>"
            "<tr><td>AIR</td><td>Meal</td></tr>"
            f"<tr><td>Depart:</td>{middle}<td>{time}</td></tr>"
            "</table></body></html>"
        )

    def example(time, layout_b):
        doc = email(time, layout_b)
        node = doc.find_by_text(time)[0]
        return TrainingExample(
            doc=doc,
            annotation=Annotation(
                groups=[AnnotationGroup(locations=(node,), value=time)]
            ),
        )

    times = ["8:18 PM", "2:02 PM", "9:01 AM", "4:45 PM", "6:30 AM", "1:11 PM"]
    examples = [
        example(t, layout_b=(i % 2 == 1)) for i, t in enumerate(times)
    ]
    test_pairs = [
        (email("7:07 AM", False), ["7:07 AM"]),
        (email("3:33 PM", True), ["3:33 PM"]),
    ]

    layered = lrsyn(HtmlDomain(), examples)
    layered_score = score(
        (layered.extract(doc), gold) for doc, gold in test_pairs
    )

    try:
        merged = lrsyn(MergedLayoutDomain(), examples)
        merged_score = score(
            (merged.extract(doc), gold) for doc, gold in test_pairs
        )
        merged_f1 = merged_score.f1
    except SynthesisFailure:
        merged_f1 = float("nan")

    table = render_table(
        ["Variant", "F1 on mixed-layout test"],
        [
            ["Per-layout strategies", f"{layered_score.f1:.2f}"],
            ["Single merged strategy",
             "synthesis failed" if merged_f1 != merged_f1 else f"{merged_f1:.2f}"],
        ],
        title="Ablation: layout-conditional value extraction",
    )
    emit("ablation_layouts", table)
    assert layered_score.f1 == 1.0
    assert merged_f1 != merged_f1 or merged_f1 < 1.0
