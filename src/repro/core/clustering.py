"""Joint clustering and landmark inference (Algorithm 3).

The procedure works in three phases, mirroring Section 4.2:

1. **Initial fine clustering** — agglomerative clustering of the training
   documents by whole-document blueprint distance.  Documents land in the
   same fine cluster only when they have "more or less exactly the same
   format".
2. **Landmark and ROI-blueprint candidates** — per fine cluster, score shared
   n-grams as landmark candidates, and for every document compute the
   blueprint of the ROI enclosing the annotated values and the landmark
   occurrences.
3. **Coarse merging** — repeatedly merge the pair of clusters whose average
   inter-document ROI distance (minimized over shared landmark candidates) is
   below the merge threshold.  The resulting clusters reflect only the local
   structure around the field values, so formats differing in advertisement
   sections or section order collapse together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.core.caching import DistanceCache, active_timer
from repro.core.document import (
    Annotation,
    Domain,
    Location,
    ScoredLandmark,
    TrainingExample,
)


@dataclass
class ClusterInfo:
    """A cluster of training examples with its inferred landmark."""

    examples: list[TrainingExample]
    landmark: str
    candidates: list[ScoredLandmark] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)


def fine_cluster(
    domain: Domain,
    examples: Sequence[TrainingExample],
    threshold: float,
    cache: DistanceCache | None = None,
) -> list[list[TrainingExample]]:
    """Initial clustering by whole-document blueprint distance.

    Single-linkage agglomeration: an example joins the first cluster holding
    a document whose blueprint is within ``threshold``.  This produces the
    "large number of very fine-grained clusters" of Section 2.1.  The
    scan is lazy: it stops at the first blueprint within ``threshold``,
    so only the distances that decide a placement are computed.
    """
    cache = cache or DistanceCache(domain)
    clusters: list[list[TrainingExample]] = []
    with active_timer().stage("cluster"):
        blueprints: list[list[Hashable]] = []
        for example in examples:
            blueprint = cache.document_blueprint(example.doc)
            placed = False
            for cluster, cluster_bps in zip(clusters, blueprints):
                if any(
                    cache.distance(blueprint, other) <= threshold
                    for other in cluster_bps
                ):
                    cluster.append(example)
                    cluster_bps.append(blueprint)
                    placed = True
                    break
            if not placed:
                clusters.append([example])
                blueprints.append([blueprint])
    return clusters


def pair_values_to_landmarks(
    domain: Domain,
    doc,
    annotation: Annotation,
    landmark: str,
) -> list[tuple[Location, list[tuple[tuple[Location, ...], str]]]]:
    """Assign each annotated value group to its nearest landmark occurrence.

    Algorithm 4 computes one ROI per document from the landmark location and
    the annotations; when a landmark occurs several times (the two
    ``Depart:`` rows of Figure 1(a)) each occurrence anchors the values
    closest to it in document order.  Returns ``(occurrence, groups)`` pairs
    for occurrences that anchor at least one value group.
    """
    occurrences = domain.locate(doc, landmark)
    if not occurrences:
        return []
    order = domain.location_order(doc)

    def position(loc: Location) -> int:
        return order.get(loc, 0)

    assigned: dict[int, list[tuple[tuple[Location, ...], str]]] = {
        i: [] for i in range(len(occurrences))
    }
    for group in annotation.groups:
        group_pos = min(position(loc) for loc in group.locations)
        best = min(
            range(len(occurrences)),
            key=lambda i: abs(position(occurrences[i]) - group_pos),
        )
        assigned[best].append((group.locations, group.value))

    return [
        (occurrences[i], groups)
        for i, groups in assigned.items()
        if groups
    ]


def _roi_blueprints(
    domain: Domain,
    example: TrainingExample,
    candidates: Sequence[ScoredLandmark],
    common_values: frozenset[str],
    cache: DistanceCache,
) -> dict[str, Hashable]:
    """ROI blueprint per landmark candidate for one document (Alg. 3, l. 8-9)."""

    def compute(landmark: str) -> Hashable | None:
        pairs = pair_values_to_landmarks(
            domain, example.doc, example.annotation, landmark
        )
        if not pairs:
            return None
        occurrence, groups = pairs[0]
        locations = [occurrence] + [
            loc for group_locs, _ in groups for loc in group_locs
        ]
        region = domain.enclosing_region(example.doc, locations)
        return domain.region_blueprint(example.doc, region, common_values)

    result: dict[str, Hashable] = {}
    for candidate in candidates:
        blueprint = cache.roi_blueprint(
            example.doc,
            candidate.value,
            common_values,
            lambda landmark=candidate.value: compute(landmark),
        )
        if blueprint is not None:
            result[candidate.value] = blueprint
    return result


def _document_distance(
    roi_a: dict[str, Hashable],
    roi_b: dict[str, Hashable],
    cache: DistanceCache,
) -> float:
    """Distance between two documents: the least ROI blueprint distance
    over their shared landmark candidates, 1.0 when they share none."""
    shared = set(roi_a) & set(roi_b)
    if not shared:
        return 1.0
    return min(cache.distance(roi_a[m], roi_b[m]) for m in shared)


def _cluster_distance(
    cluster_a: list[TrainingExample],
    cluster_b: list[TrainingExample],
    document_distance: Callable[[TrainingExample, TrainingExample], float],
) -> float:
    """Average pairwise document distance ``Δ`` between two clusters."""
    distances = [
        document_distance(ex_a, ex_b)
        for ex_a in cluster_a
        for ex_b in cluster_b
    ]
    if not distances:
        return 1.0
    return sum(distances) / len(distances)


def _merge_clusters(
    clusters: list[list[TrainingExample]],
    roi_of: dict[int, dict[str, Hashable]],
    cache: DistanceCache,
    merge_threshold: float,
) -> list[tuple[int, int]]:
    """Algorithm 3's merge loop (lines 10-15), in place: merge the closest
    pair while some pair is within ``merge_threshold``.  Returns the merged
    ``(i, j)`` index pairs in order.

    A round re-evaluates every cluster pair, but merging changes only the
    merged cluster's distances, so both the cluster distance (keyed on the
    two lists' ids) and the document distance (keyed on the two examples'
    ids) are computed once for the whole loop.  Every list the loop has
    seen stays pinned, so no id is reused while the memo lives.  Each sum
    still runs over the same document pairs in the same order, so every
    merge decision is the same as without the memo.
    """
    pinned = list(clusters)
    between: dict[tuple[int, int], float] = {}
    documents: dict[tuple[int, int], float] = {}

    def document_distance(
        ex_a: TrainingExample, ex_b: TrainingExample
    ) -> float:
        key = (id(ex_a), id(ex_b))
        distance = documents.get(key)
        if distance is None:
            distance = documents[key] = _document_distance(
                roi_of[id(ex_a)], roi_of[id(ex_b)], cache
            )
        return distance

    merges: list[tuple[int, int]] = []
    while len(clusters) > 1:
        best_pair: tuple[int, int] | None = None
        best_distance = merge_threshold
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                key = (id(clusters[i]), id(clusters[j]))
                distance = between.get(key)
                if distance is None:
                    distance = between[key] = _cluster_distance(
                        clusters[i], clusters[j], document_distance
                    )
                if distance <= best_distance:
                    best_pair = (i, j)
                    best_distance = distance
        if best_pair is None:
            break
        i, j = best_pair
        clusters[i] = clusters[i] + clusters[j]
        pinned.append(clusters[i])
        del clusters[j]
        merges.append(best_pair)
    return merges


def infer_landmarks_and_clusters(
    domain: Domain,
    examples: Sequence[TrainingExample],
    fine_threshold: float = 0.05,
    merge_threshold: float = 0.0,
    max_candidates: int = 10,
    cache: DistanceCache | None = None,
) -> list[ClusterInfo]:
    """Algorithm 3: jointly cluster documents and infer landmarks."""
    if not examples:
        return []
    cache = cache or DistanceCache(domain)

    clusters = fine_cluster(domain, examples, fine_threshold, cache=cache)

    # Landmark candidates and per-document ROI blueprints (lines 4-9).
    # ROI blueprints use the common values of the *whole training set* so
    # they are comparable across fine clusters during merging; a fine
    # cluster's own common values would leak document-specific texts for
    # singleton clusters and block every merge.
    global_common = domain.common_values([ex.doc for ex in examples])
    # Candidates scored over the whole training set are added to every
    # cluster's ROI computation: tiny fine clusters treat document-specific
    # text as "invariant" and would otherwise share no candidate (hence no
    # merge opportunity) with the large clusters.
    global_candidates = cache.landmark_candidates(examples, max_candidates)
    roi_of: dict[int, dict[str, Hashable]] = {}
    for cluster in clusters:
        candidates = cache.landmark_candidates(cluster, max_candidates)
        cluster_values = {candidate.value for candidate in candidates}
        merged_candidates = candidates + [
            candidate
            for candidate in global_candidates
            if candidate.value not in cluster_values
        ]
        with active_timer().stage("cluster"):
            for example in cluster:
                roi_of[id(example)] = _roi_blueprints(
                    domain, example, merged_candidates, global_common, cache
                )

    # Merge clusters while some pair is within the merge threshold
    # (lines 10-15).
    with active_timer().stage("cluster"):
        _merge_clusters(clusters, roi_of, cache, merge_threshold)

    # Finalize: recompute candidates on merged clusters and pick the top one
    # (line 16).
    result: list[ClusterInfo] = []
    for cluster in clusters:
        candidates = cache.landmark_candidates(cluster, max_candidates)
        if not candidates:
            continue
        result.append(
            ClusterInfo(
                examples=cluster,
                landmark=candidates[0].value,
                candidates=candidates,
            )
        )
    return result
