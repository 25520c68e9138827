"""LRSyn: landmark-based robust synthesis (Algorithms 2 and 4).

:func:`synthesize_extraction_program` implements Algorithm 4 for one cluster:
compute the ROI of every training document from the landmark and annotations,
synthesize the region program from ``(doc, loc) -> region`` examples, compute
the typical ROI blueprint, and synthesize the value program from
``region -> value`` examples.

:func:`lrsyn` implements Algorithm 2: run the joint clustering/landmark
inference, synthesize one strategy per cluster, and assemble the complete
``Extract`` program.  Clusters whose synthesis fails are skipped (their
documents are covered by no strategy), mirroring the "LRSyn fails altogether,
producing no programs" cases reported for fields without a usable landmark.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.core.caching import DistanceCache, active_timer
from repro.core.clustering import (
    ClusterInfo,
    infer_landmarks_and_clusters,
    pair_values_to_landmarks,
)
from repro.core.document import Domain, SynthesisFailure, TrainingExample
from repro.core.dsl import ExtractionProgram, Strategy


@dataclass
class LrsynConfig:
    """Tunable thresholds of LRSyn (Section 7: three threshold parameters).

    * ``fine_threshold`` — document-blueprint distance for initial clustering;
    * ``merge_threshold`` — cluster-merge threshold of Algorithm 3 (paper: 0);
    * ``blueprint_threshold`` — the ``t`` of Algorithm 1 (paper: 0 for HTML);
    * ``max_candidates`` — landmark candidates kept per cluster (paper: ~10).
    """

    fine_threshold: float = 0.05
    merge_threshold: float = 0.0
    blueprint_threshold: float = 0.0
    max_candidates: int = 10


def typical_blueprint(
    blueprints: Sequence[Hashable],
    distance=None,
) -> Hashable:
    """The "average" blueprint of Algorithm 4, line 9.

    With a ``distance`` function the average is the *medoid* — the observed
    blueprint minimizing the total distance to all others — which stays
    meaningful for graded blueprint metrics (the image domain's BoxSummary
    matching).  Without one, set-valued blueprints are averaged by majority
    vote and other kinds by most-common value.

    An empty input has no meaningful average in *any* blueprint domain (a
    ``frozenset()`` fallback would be wrong-typed for e.g. the image
    domain's BoxSummary blueprints), so it raises :class:`SynthesisFailure`
    and the caller moves on to its next layout group or landmark candidate.
    """
    if not blueprints:
        raise SynthesisFailure("no blueprints observed: empty layout group")
    if distance is not None:
        # Equal blueprints have equal sums, so each distinct one is summed
        # once, over the full list in its order; min still returns the
        # first blueprint with the least sum.  Keyed on the blueprint
        # alone: the image metric is asymmetric.
        sums: dict[Hashable, float] = {}

        def total(bp: Hashable) -> float:
            if bp not in sums:
                sums[bp] = sum(distance(bp, other) for other in blueprints)
            return sums[bp]

        return min(blueprints, key=total)
    if all(isinstance(bp, frozenset) for bp in blueprints):
        counts: Counter = Counter()
        for bp in blueprints:
            counts.update(bp)
        quorum = len(blueprints) / 2.0
        return frozenset(
            element for element, count in counts.items() if count > quorum
        )
    most_common, _ = Counter(blueprints).most_common(1)[0]
    return most_common


def synthesize_extraction_program(
    domain: Domain,
    cluster: ClusterInfo,
    landmark: str,
    cache: DistanceCache | None = None,
) -> list[Strategy]:
    """Algorithm 4: synthesize the extraction strategies for a cluster.

    The paper makes value extraction "conditional on both the landmark and
    the layout of the identified region of interest", so when the annotated
    ROIs exhibit several distinct layouts (blueprints) — e.g. a flight block
    with and without an optional boarding row — we synthesize one
    ``(m, p_rx, b, p_vx)`` tuple per layout.  All tuples share the landmark;
    Algorithm 1's switch picks the tuple whose blueprint matches at runtime.
    """
    cache = cache or DistanceCache(domain)
    docs = [example.doc for example in cluster.examples]
    common_values = domain.common_values(docs)

    region_examples = []   # (doc, landmark location, ROI)
    value_examples = []    # (ROI, [(locations, value), ...])
    for example in cluster.examples:
        pairs = pair_values_to_landmarks(
            domain, example.doc, example.annotation, landmark
        )
        if not pairs:
            raise SynthesisFailure(
                f"landmark {landmark!r} does not anchor any value"
            )
        for occurrence, groups in pairs:
            locations = [occurrence] + [
                loc for group_locs, _ in groups for loc in group_locs
            ]
            region = domain.enclosing_region(example.doc, locations)
            region_examples.append((example.doc, occurrence, region))
            value_examples.append((region, groups))

    # Group the examples by annotated-ROI layout (HTML); domains whose
    # region DSL is internally disjunctive synthesize over all examples.
    layout_groups: dict = {}
    if domain.layout_conditional:
        for region_example, value_example in zip(
            region_examples, value_examples
        ):
            doc, _, region = region_example
            layout = domain.region_blueprint(doc, region, common_values)
            layout_groups.setdefault(layout, []).append(
                (region_example, value_example)
            )
    else:
        layout_groups["all"] = list(zip(region_examples, value_examples))

    strategies: list[Strategy] = []
    failures: list[str] = []
    # Larger layout groups first: the most common layout should be tried
    # first at inference time.
    for layout, group in sorted(
        layout_groups.items(), key=lambda item: -len(item[1])
    ):
        group_regions = [region_example for region_example, _ in group]
        group_values = [value_example for _, value_example in group]
        try:
            with active_timer().stage("region-synth"):
                region_program = domain.synthesize_region_program(
                    group_regions, cluster.examples
                )
            # The blueprint is computed on the region the *synthesized
            # program* produces (RegionSpec(doc) in the paper), not the
            # annotated ROI, so the inference-time comparison is
            # apples-to-apples.
            blueprints = []
            for doc, occurrence, _ in group_regions:
                produced = region_program(doc, occurrence)
                if produced is not None:
                    blueprints.append(
                        domain.region_blueprint(doc, produced, common_values)
                    )
            # The medoid is quadratic in the distance function; routing it
            # through the cache collapses repeated blueprint pairs.
            blueprint = typical_blueprint(blueprints, distance=cache.distance)
            with active_timer().stage("value-synth"):
                value_program = domain.synthesize_value_program(group_values)
        except SynthesisFailure as failure:
            failures.append(str(failure))
            continue
        strategies.append(
            Strategy(
                landmark=landmark,
                region_program=region_program,
                blueprint=blueprint,
                value_program=value_program,
                common_values=common_values,
            )
        )

    if not strategies:
        raise SynthesisFailure(
            f"no layout group synthesized for landmark {landmark!r}: "
            + "; ".join(failures[:2])
        )
    return strategies


def lrsyn(
    domain: Domain,
    examples: Sequence[TrainingExample],
    config: LrsynConfig | None = None,
) -> ExtractionProgram:
    """Algorithm 2: the top-level LRSyn synthesis driver.

    One :class:`DistanceCache` spans the whole invocation, so blueprints,
    pairwise distances and landmark-candidate lists computed during
    clustering are reused by every per-cluster synthesis attempt.
    """
    config = config or LrsynConfig()
    return _lrsyn(domain, examples, config, DistanceCache(domain))


def _lrsyn(
    domain: Domain,
    examples: Sequence[TrainingExample],
    config: LrsynConfig,
    cache: DistanceCache,
) -> ExtractionProgram:
    clusters = infer_landmarks_and_clusters(
        domain,
        examples,
        fine_threshold=config.fine_threshold,
        merge_threshold=config.merge_threshold,
        max_candidates=config.max_candidates,
        cache=cache,
    )

    sized_strategies: list[tuple[int, int, Strategy]] = []
    for cluster in clusters:
        # Try landmark candidates best-first: "bad" candidates are usually
        # eliminated because no program extracts the values from them
        # (Section 7.4).
        for candidate in cluster.candidates or []:
            try:
                cluster_strategies = synthesize_extraction_program(
                    domain, cluster, candidate.value, cache=cache
                )
            except SynthesisFailure:
                continue
            for position, strategy in enumerate(cluster_strategies):
                sized_strategies.append((len(cluster), position, strategy))
            break

    if not sized_strategies:
        raise SynthesisFailure("no cluster produced an extraction strategy")

    # Larger clusters first (their formats are the most common), preserving
    # the per-cluster layout order.
    sized_strategies.sort(key=lambda item: (-item[0], item[1]))
    strategies = [strategy for _, _, strategy in sized_strategies]

    return ExtractionProgram(
        domain=domain,
        strategies=strategies,
        threshold=config.blueprint_threshold,
    )
