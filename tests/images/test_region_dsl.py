"""Tests for the Figure 6 region DSL (repro.images.region_dsl)."""

import random
import re
from itertools import islice

import pytest

from repro.core.document import SynthesisFailure
from repro.images import region_dsl
from repro.images.boxes import (
    BOTTOM,
    ImageDocument,
    ImageRegion,
    RIGHT,
    TextBox,
    _directional_distance,
)
from repro.images.region_dsl import (
    MAX_ABSOLUTE_STEPS,
    MAX_MOTIONS,
    MAX_RELATIVE_STEPS,
    MAX_STATES,
    Absolute,
    ImageRegionProgram,
    PathProgram,
    Relative,
    _prefix_trie,
    _run_trie,
    _toward,
    enumerate_paths,
    synthesize_region_program,
)


def box(text, x, y, w=80, h=20, tags=None):
    return TextBox(text=text, x=x, y=y, w=w, h=h, tags=tags)


def chassis_page(engine_present: bool, fragments=("WDX 28298", "2L SHX 3")):
    """Example 5.3's page: labels above, chassis fragments + optional
    13-digit engine number + date on the row below."""
    value = " ".join(fragments)
    boxes = [
        box("Chassis number", 0, 0),
        box("Engine number", 300, 0),
        box("Reg Date", 500, 0),
    ]
    x = 0
    for fragment in fragments:
        boxes.append(box(fragment, x, 40, w=9 * len(fragment),
                         tags={"chassis": value}))
        x += 9 * len(fragment) + 10
    if engine_present:
        boxes.append(box("4713872198212", 300, 40, w=110))
    boxes.append(box("12/04/2021", 500, 40, w=90))
    return ImageDocument(boxes)


def landmark_of(doc):
    return doc.find_by_text("Chassis number")[0]


def targets_of(doc):
    return [b for b in doc.boxes if b.tags]


class TestMotions:
    def test_absolute_steps(self):
        doc = chassis_page(True)
        path = PathProgram((Absolute(BOTTOM, 1), Absolute(RIGHT, 1)))
        boxes = path.run(doc, landmark_of(doc))
        assert [b.text for b in boxes] == [
            "Chassis number", "WDX 28298", "2L SHX 3",
        ]

    def test_absolute_clamps_at_page_edge(self):
        doc = ImageDocument([box("a", 0, 0), box("b", 100, 0)])
        path = PathProgram((Absolute(RIGHT, 4),))
        boxes = path.run(doc, doc.boxes[0])
        assert [b.text for b in boxes] == ["a", "b"]

    def test_absolute_with_no_progress_is_none(self):
        doc = ImageDocument([box("a", 0, 0)])
        path = PathProgram((Absolute(RIGHT, 2),))
        assert path.run(doc, doc.boxes[0]) is None

    def test_relative_exclusive_stops_before_match(self):
        doc = chassis_page(True)
        path = PathProgram(
            (Absolute(BOTTOM, 1), Relative(RIGHT, r"[0-9]{13}", False))
        )
        boxes = path.run(doc, landmark_of(doc))
        assert boxes[-1].text == "2L SHX 3"

    def test_relative_inclusive_keeps_match(self):
        doc = chassis_page(True)
        path = PathProgram(
            (Absolute(BOTTOM, 1), Relative(RIGHT, r"[0-9]{13}", True))
        )
        boxes = path.run(doc, landmark_of(doc))
        assert boxes[-1].text == "4713872198212"

    def test_relative_without_match_is_none(self):
        doc = chassis_page(False)
        path = PathProgram(
            (Absolute(BOTTOM, 1), Relative(RIGHT, r"[0-9]{13}", False))
        )
        assert path.run(doc, landmark_of(doc)) is None

    def test_disjunct_first_non_null_wins(self):
        doc = chassis_page(False)
        program = ImageRegionProgram(
            paths=(
                PathProgram(
                    (Absolute(BOTTOM, 1), Relative(RIGHT, r"[0-9]{13}", False))
                ),
                PathProgram(
                    (
                        Absolute(BOTTOM, 1),
                        Relative(RIGHT, r"[0-9]{2}/[0-9]{2}/[0-9]{4}", False),
                    )
                ),
            )
        )
        region = program(doc, landmark_of(doc))
        assert region is not None
        assert region.covers(targets_of(doc))


class TestEnumeration:
    def test_finds_covering_paths(self):
        doc = chassis_page(True)
        paths = enumerate_paths(
            doc,
            landmark_of(doc),
            targets_of(doc),
            patterns=[r"[0-9]{13}", r"[0-9]{2}/[0-9]{2}/[0-9]{4}"],
        )
        assert paths
        for path in paths:
            boxes = path.run(doc, landmark_of(doc))
            assert ImageRegion(boxes).covers(targets_of(doc))


class TestSynthesis:
    def test_example_5_3_disjunction(self):
        """Training on engine-present and engine-absent forms yields a
        disjunction whose members stop at the engine number or at the
        date — the paper's Example 5.3."""
        # OCR split counts vary more than engine presence (as in the real
        # pipeline), so per-split Absolute programs each cover few examples
        # and the pattern-stopped Relative programs win the selection.
        docs = [
            chassis_page(True, ("WDX 28298 2L",)),
            chassis_page(True, ("KMS 62808", "5K")),
            chassis_page(True, ("XKS 39051", "5X", "2L")),
            chassis_page(False, ("WWK 51373", "6S", "1X")),
            chassis_page(False),
        ]
        examples = [
            (doc, landmark_of(doc), ImageRegion(targets_of(doc)))
            for doc in docs
        ]
        program = synthesize_region_program(
            examples,
            patterns=[r"[0-9]{13}", r"[0-9]{2}/[0-9]{2}/[0-9]{4}"],
        )
        # Works on an unseen split and either engine configuration.
        for engine in (True, False):
            doc = chassis_page(engine, ("HHD 53032", "9S", "3X", "7L"))
            region = program(doc, landmark_of(doc))
            assert region is not None
            assert region.covers(targets_of(doc))
            # ... and does not swallow the engine number.
            assert all(b.text != "4713872198212" for b in region.path_boxes)

    def test_no_examples_raises(self):
        with pytest.raises(SynthesisFailure):
            synthesize_region_program([])

    def test_uncoverable_raises(self):
        # Value far away with no connecting geometry.
        doc = ImageDocument(
            [box("label", 0, 0), box("v", 4000, 4000, tags={"f": "v"})]
        )
        with pytest.raises(SynthesisFailure):
            synthesize_region_program(
                [(doc, doc.boxes[0], ImageRegion([doc.boxes[1]]))],
                patterns=[],
            )

    def test_program_size(self):
        program = ImageRegionProgram(
            paths=(PathProgram((Absolute(RIGHT, 1),)),)
        )
        assert program.size() == 1


# ----------------------------------------------------------------------
# Reference enumeration: a frozen copy of the motion-by-motion
# enumerate_paths (one extension per candidate, over a brute-force walk),
# kept as the specification of the candidate order, the MAX_STATES
# accounting and every motion's semantics.
# ----------------------------------------------------------------------
def reference_walk(doc, cursor, direction):
    while True:
        best, best_distance = None, float("inf")
        for other in doc.boxes:
            if other is cursor:
                continue
            distance = _directional_distance(cursor, other, direction)
            if distance is not None and distance < best_distance:
                best, best_distance = other, distance
        if best is None:
            return
        cursor = best
        yield cursor


def reference_extend(path, steps, motion):
    extended = list(path)
    if isinstance(motion, Absolute):
        extended.extend(islice(steps, motion.k))
        if len(extended) == len(path):
            return None
        return extended
    regex = re.compile(motion.pattern)
    for neighbour in islice(steps, MAX_RELATIVE_STEPS):
        if regex.fullmatch(neighbour.text.strip()):
            if motion.inclusive:
                extended.append(neighbour)
            return extended
        extended.append(neighbour)
    return None


def reference_run(path, doc, start):
    boxes = [start]
    for motion in path.motions:
        boxes = reference_extend(
            boxes, reference_walk(doc, boxes[-1], motion.direction), motion
        )
        if boxes is None:
            return None
    return boxes


def reference_enumerate_paths(doc, start, targets, patterns, max_states):
    target_ids = {id(box) for box in targets}

    def covered(path):
        return target_ids <= {id(box) for box in path}

    walk_length = MAX_RELATIVE_STEPS if patterns else MAX_ABSOLUTE_STEPS
    results = []
    frontier = [((), [start])]
    states = 0
    for _ in range(MAX_MOTIONS):
        next_frontier = []
        for motions, path in frontier:
            members = {id(box) for box in path}
            uncovered = [box for box in targets if id(box) not in members]
            if not uncovered:
                continue
            directions = set()
            for box in uncovered:
                directions |= _toward(path[-1], box)
            for direction in sorted(directions):
                walked = list(
                    islice(reference_walk(doc, path[-1], direction), walk_length)
                )
                candidate_motions = [
                    Absolute(direction, k)
                    for k in range(1, MAX_ABSOLUTE_STEPS + 1)
                ]
                for pattern in patterns:
                    candidate_motions.append(Relative(direction, pattern, True))
                    candidate_motions.append(Relative(direction, pattern, False))
                for motion in candidate_motions:
                    states += 1
                    if states > max_states:
                        return results
                    extended = reference_extend(path, walked, motion)
                    if extended is None:
                        continue
                    new_motions = motions + (motion,)
                    if covered(extended):
                        results.append(PathProgram(new_motions))
                    else:
                        next_frontier.append((new_motions, extended))
        frontier = next_frontier
        if not frontier:
            break
    return results


WORDS = (
    "Total", "Date", "Amount", " Invoice ", "No.", "4713872198212",
    "12/04/2021", "$120.50", "WDX 28298", "2L", "", "  ", "Engine number",
)
STOP_PATTERNS = (
    r"[0-9]{13}",
    r"[0-9]{2}/[0-9]{2}/[0-9]{4}",
    r"\$[0-9]+\.[0-9]+",
    r"[A-Z][a-z]+",
    r"Total",
    r"[A-Z]+ [0-9]+",
)


def seeded_page(seed):
    """A jittered form page: rows of boxes with mixed texts, so walks
    cross pattern stops, blank boxes and overlapping fragments."""
    rng = random.Random(seed)
    boxes = []
    for row in range(rng.randint(2, 6)):
        x = rng.uniform(0, 30)
        for _ in range(rng.randint(1, 5)):
            width = rng.choice((30, 60, 90, 120))
            boxes.append(
                box(rng.choice(WORDS), x, row * 35 + rng.uniform(-3, 3),
                    w=width, h=rng.choice((15, 20, 25)))
            )
            x += width + rng.uniform(-10, 40)
    doc = ImageDocument(boxes)
    start = rng.choice(doc.boxes)
    targets = rng.sample(doc.boxes, rng.randint(1, min(3, len(doc.boxes))))
    patterns = rng.sample(STOP_PATTERNS, rng.randint(0, len(STOP_PATTERNS)))
    return doc, start, targets, patterns


def example_5_3_cases():
    for engine in (True, False):
        for fragments in (("WDX 28298", "2L SHX 3"), ("KMS 62808", "5K", "2L")):
            doc = chassis_page(engine, fragments)
            yield doc, landmark_of(doc), targets_of(doc), [
                r"[0-9]{13}", r"[0-9]{2}/[0-9]{2}/[0-9]{4}", r"[A-Z][a-z]+"
            ]


def equivalence_cases():
    yield from example_5_3_cases()
    for seed in range(40):
        yield seeded_page(seed)


class TestEnumerationEquivalence:
    """The one-walk enumeration returns exactly the motion-by-motion
    reference's list: same paths, same order, same MAX_STATES cut."""

    @pytest.mark.parametrize("max_states", [None, 4, 7, 40])
    def test_matches_reference(self, monkeypatch, max_states):
        if max_states is not None:
            monkeypatch.setattr(region_dsl, "MAX_STATES", max_states)
        cap = region_dsl.MAX_STATES
        capped = 0
        for doc, start, targets, patterns in equivalence_cases():
            expected = reference_enumerate_paths(
                doc, start, targets, patterns, cap
            )
            assert enumerate_paths(doc, start, targets, patterns) == expected
            if max_states is not None:
                capped += len(
                    reference_enumerate_paths(
                        doc, start, targets, patterns, MAX_STATES
                    )
                ) > len(expected)
        if max_states is not None:
            assert capped  # the cap really cut some enumerations short

    def test_runs_match_reference(self):
        """Every enumerated path runs to the reference's boxes, alone and
        through the prefix trie that shares walks and stops."""
        for doc, start, targets, patterns in equivalence_cases():
            paths = enumerate_paths(doc, start, targets, patterns)
            paths += [
                PathProgram((Absolute(direction, k), Relative(BOTTOM, p, i)))
                for direction in (RIGHT, BOTTOM)
                for k in (1, 3)
                for p in patterns
                for i in (True, False)
            ]
            expected = [reference_run(path, doc, start) for path in paths]
            assert [path.run(doc, start) for path in paths] == expected
            ran = dict(_run_trie(doc, start, _prefix_trie(paths)))
            assert [ran.get(position) for position in range(len(paths))] == (
                expected
            )
