"""The form-images region-extraction DSL of Figure 6.

::

    RProg  := Disjunct(path, path, ...)
    path   := input | Expand(path, motion)
    motion := Absolute(dir, k) | Relative(dir, pattern, inclusive)
    dir    := Top | Left | Right | Bottom

A path starts at the landmark box and repeatedly extends by moving box to
box in a direction — a fixed number of steps (``Absolute``) or until a box
matches a regex pattern (``Relative``, with ``inclusive`` controlling
whether the matching box joins the path).  The region is the set of boxes on
the path.

Synthesis follows Section 5.2: enumerate candidate paths (up to 4 motions,
``k < 5``, patterns from the string profiler) for small subsets of the
examples, filter by whether they cover the annotated boxes, then use
NDSyn's selection to assemble the disjunction.  Enumeration is guided: at
each step only directions that move toward still-uncovered annotated boxes
are expanded, which keeps the search tractable without losing the programs
the paper's examples need (Example 5.3's "down 1, right until a 13-digit
number").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.baselines.disjunctive import Candidate, select_disjuncts
from repro.core.document import RegionProgram, SynthesisFailure
from repro.images.boxes import (
    BOTTOM,
    DIRECTIONS,
    ImageDocument,
    ImageRegion,
    LEFT,
    RIGHT,
    TOP,
    TextBox,
)

MAX_MOTIONS = 4
MAX_ABSOLUTE_STEPS = 4
MAX_RELATIVE_STEPS = 24  # bounded walk across the page
MAX_STATES = 4000


@dataclass(frozen=True)
class Absolute:
    """Move up to ``k`` neighbour steps in ``direction``, appending each box.

    The walk clamps at the page edge (OCR may split a value into fewer
    fragments than ``k`` expects); a fully exhausted direction with zero
    steps taken still counts as the (possibly shorter) path.  The training
    tightness filter rejects programs that exploit clamping to wander.
    """

    direction: str
    k: int

    def __str__(self) -> str:
        return f"Abs({self.direction}, {self.k})"


@dataclass(frozen=True)
class Relative:
    """Move in ``direction`` until a box matches ``pattern``.

    Traversed boxes join the path; the matching box joins iff ``inclusive``.
    """

    direction: str
    pattern: str
    inclusive: bool

    def __str__(self) -> str:
        return f"Rel({self.direction}, {self.pattern!r}, {self.inclusive})"


Motion = Absolute | Relative

# Every Absolute motion of the enumeration, by direction: k = 1, 2, ...
_ABSOLUTES = {
    direction: tuple(
        Absolute(direction, k) for k in range(1, MAX_ABSOLUTE_STEPS + 1)
    )
    for direction in DIRECTIONS
}


@dataclass(frozen=True)
class PathProgram:
    """``input`` extended by a sequence of motions."""

    motions: tuple[Motion, ...]

    def run(self, doc: ImageDocument, start: TextBox) -> list[TextBox] | None:
        path = [start]
        for motion in self.motions:
            steps = _cut(doc, path[-1], motion, {}, {})
            if steps is None:
                return None
            path = path + steps
        return path

    def size(self) -> int:
        return max(1, len(self.motions))

    def __str__(self) -> str:
        inner = "input"
        for motion in self.motions:
            inner = f"Ext({inner}, {motion})"
        return inner


def _cut(
    doc: ImageDocument,
    end: TextBox,
    motion: Motion,
    walks: dict[str, list[TextBox]],
    stops: dict[tuple[str, str], int | None],
) -> list[TextBox] | None:
    """The boxes ``motion`` appends to a path that ends at ``end``, or
    ``None`` where it fails.  ``walks`` (by direction) and ``stops`` (by
    direction and pattern) keep the walks from ``end`` and the stop
    indexes found in them for the next motion cut from ``end``."""
    direction = motion.direction
    walked = walks.get(direction)
    if walked is None:
        walked = walks[direction] = doc.walk(end, direction, MAX_RELATIVE_STEPS)
    if isinstance(motion, Absolute):
        # An empty walk makes no progress at all: the motion fails.
        return walked[: motion.k] if walked else None
    key = (direction, motion.pattern)
    if key in stops:
        stop = stops[key]
    else:
        stop = stops[key] = _stop_index(
            _compiled(motion.pattern), (box.text.strip() for box in walked)
        )
    if stop is None:
        return None
    return walked[: stop + 1 if motion.inclusive else stop]


def _stop_index(regex: re.Pattern[str], texts: Iterable[str]) -> int | None:
    """Index of the first of ``texts`` that ``regex`` fully matches."""
    for index, text in enumerate(texts):
        if regex.fullmatch(text):
            return index
    return None


_REGEX_CACHE: dict[str, re.Pattern[str]] = {}


def _compiled(pattern: str) -> re.Pattern[str]:
    compiled = _REGEX_CACHE.get(pattern)
    if compiled is None:
        compiled = re.compile(pattern)
        _REGEX_CACHE[pattern] = compiled
    return compiled


@dataclass(frozen=True)
class ImageRegionProgram(RegionProgram):
    """Figure 6's ``Disjunct(path, path, ...)``: first non-null path wins."""

    paths: tuple[PathProgram, ...]

    def __call__(self, doc: ImageDocument, loc: TextBox) -> ImageRegion | None:
        for path in self.paths:
            boxes = path.run(doc, loc)
            if boxes is not None:
                return ImageRegion(boxes)
        return None

    def size(self) -> int:
        return sum(path.size() for path in self.paths)

    def __str__(self) -> str:
        return "Disjunct(" + ", ".join(str(p) for p in self.paths) + ")"


def _toward(start: TextBox, target: TextBox) -> set[str]:
    """Directions that move from ``start`` toward ``target``."""
    directions: set[str] = set()
    if target.cx > start.x2:
        directions.add(RIGHT)
    if target.cx < start.x:
        directions.add(LEFT)
    if target.cy > start.y2:
        directions.add(BOTTOM)
    if target.cy < start.y:
        directions.add(TOP)
    if not directions:
        # Overlapping coordinates: allow the dominant axis both ways.
        directions = {RIGHT, BOTTOM}
    return directions


def enumerate_paths(
    doc: ImageDocument,
    start: TextBox,
    targets: Sequence[TextBox],
    patterns: Sequence[str],
) -> list[PathProgram]:
    """Candidate paths from ``start`` covering all ``targets`` in ``doc``.

    Guided breadth-first enumeration over motion sequences.  A state is the
    current path; expansion only considers directions toward uncovered
    targets (plus pattern stops in those directions).  Each (state,
    direction) walk is taken once and every candidate motion in that
    direction is cut from it.
    """
    target_ids = {id(box) for box in targets}

    def covered(path: list[TextBox]) -> bool:
        members = {id(box) for box in path}
        return target_ids <= members

    # Absolute motions use at most MAX_ABSOLUTE_STEPS boxes of a walk,
    # Relative ones at most MAX_RELATIVE_STEPS.
    walk_length = MAX_RELATIVE_STEPS if patterns else MAX_ABSOLUTE_STEPS
    compiled = [_compiled(pattern) for pattern in patterns]
    # Per direction: (inclusive, exclusive, regex) for each stop pattern.
    relatives: dict[str, list[tuple[Relative, Relative, re.Pattern[str]]]] = {}
    results: list[PathProgram] = []
    frontier: list[tuple[tuple[Motion, ...], list[TextBox]]] = [((), [start])]
    states = 0
    for _ in range(MAX_MOTIONS):
        next_frontier: list[tuple[tuple[Motion, ...], list[TextBox]]] = []
        for motions, path in frontier:
            members = {id(box) for box in path}
            uncovered = [box for box in targets if id(box) not in members]
            if not uncovered:
                continue
            directions: set[str] = set()
            for box in uncovered:
                directions |= _toward(path[-1], box)
            for direction in sorted(directions):
                if direction not in relatives:
                    relatives[direction] = [
                        (
                            Relative(direction, pattern, True),
                            Relative(direction, pattern, False),
                            regex,
                        )
                        for pattern, regex in zip(patterns, compiled)
                    ]
                walked = doc.walk(path[-1], direction, walk_length)
                cuts = _cuts(walked, _ABSOLUTES[direction], relatives[direction])
                for motion, steps in cuts:
                    states += 1
                    if states > MAX_STATES:
                        return results
                    if steps is None:
                        continue
                    extended = path + steps
                    new_motions = motions + (motion,)
                    if covered(extended):
                        results.append(PathProgram(new_motions))
                    else:
                        next_frontier.append((new_motions, extended))
        frontier = next_frontier
        if not frontier:
            break
    return results


def _cuts(
    walked: list[TextBox],
    absolutes: Sequence[Absolute],
    relatives: Sequence[tuple[Relative, Relative, re.Pattern[str]]],
) -> Iterator[tuple[Motion, list[TextBox] | None]]:
    """Every candidate motion in one direction, in enumeration order, with
    the boxes it appends to a path whose end walked ``walked`` in that
    direction (``None`` where the motion fails).

    ``Absolute(d, k)`` takes the first ``k`` boxes of the walk.  Each
    walked box's text is stripped once, and each stop pattern's first
    full match is found once and cuts both of its ``Relative`` motions.
    """
    for k, motion in enumerate(absolutes, 1):
        yield motion, walked[:k] if walked else None
    if not relatives:
        return
    texts = [box.text.strip() for box in walked]
    for inclusive, exclusive, regex in relatives:
        stop = _stop_index(regex, texts)
        if stop is None:
            yield inclusive, None
            yield exclusive, None
        else:
            yield inclusive, walked[: stop + 1]
            yield exclusive, walked[:stop]


# A trie node: children by next motion, and the positions (in the path
# list the trie was built from) of the paths that end here.
_Trie = tuple[dict[Motion, "_Trie"], list[int]]


def _prefix_trie(paths: Sequence[PathProgram]) -> _Trie:
    root: _Trie = ({}, [])
    for position, path in enumerate(paths):
        node = root
        for motion in path.motions:
            node = node[0].setdefault(motion, ({}, []))
        node[1].append(position)
    return root


def _run_trie(
    doc: ImageDocument, start: TextBox, trie: _Trie
) -> Iterator[tuple[int, list[TextBox]]]:
    """``(position, path.run(doc, start))`` for every path in ``trie`` that
    runs; a motion prefix shared by several paths is applied once, and
    the motions out of one prefix share its walks and stop indexes."""
    stack = [(trie, [start])]
    while stack:
        (children, ends), boxes = stack.pop()
        for position in ends:
            yield position, boxes
        walks: dict[str, list[TextBox]] = {}
        stops: dict[tuple[str, str], int | None] = {}
        for motion, child in children.items():
            steps = _cut(doc, boxes[-1], motion, walks, stops)
            if steps is not None:
                stack.append((child, boxes + steps))


def synthesize_region_program(
    examples: Sequence[tuple[ImageDocument, TextBox, ImageRegion]],
    patterns: Sequence[str] = (),
    min_coverage: float = 0.5,
) -> ImageRegionProgram:
    """Enumerate path programs per example, select a disjunction (Sec. 5.2).

    ``examples`` map ``(doc, landmark box)`` to the annotated enclosing
    region; a path is correct on an example when it covers the region's
    annotated (tagged) boxes.
    """
    if not examples:
        raise SynthesisFailure("no examples for image region synthesis")

    def targets_of(region: ImageRegion) -> list[TextBox]:
        locations = region.locations()
        tagged = [box for box in locations if box.tags]
        return tagged if tagged else locations

    targets = [targets_of(region) for _, _, region in examples]

    # Enumerate from small subsets (the paper: subsets of size <= 3).
    subset = list(range(min(3, len(examples))))
    if len(examples) > 3:
        subset.append(len(examples) - 1)
    pool: dict[PathProgram, None] = {}
    for index in subset:
        doc, landmark, _ = examples[index]
        for path in enumerate_paths(doc, landmark, targets[index], patterns):
            pool.setdefault(path, None)

    # A path is correct on an example when its region covers the targets.
    paths = list(pool)
    trie = _prefix_trie(paths)
    correct_on: list[list[int]] = [[] for _ in paths]
    for index, (doc, landmark, _) in enumerate(examples):
        wanted = targets[index]
        wanted_ids = {id(box) for box in wanted}
        for position, boxes in _run_trie(doc, landmark, trie):
            # Tightness: a path that wanders past the values would feed
            # the value program unrelated text (and defeat the blueprint
            # check).  The +1 budget is the landmark box itself — this is
            # what forces Example 5.3's disjunction (a date-stop walk that
            # swallows the engine number on engine-present forms is one
            # box too long).
            if len(boxes) > len(wanted) + 1:
                continue
            if wanted_ids.issubset(map(id, boxes)):
                correct_on[position].append(index)

    candidates: list[Candidate[PathProgram]] = [
        Candidate(program=path, covered=frozenset(covered), size=path.size())
        for path, covered in zip(paths, correct_on)
        if covered
    ]

    try:
        chosen = select_disjuncts(
            candidates, num_examples=len(examples), min_coverage=min_coverage
        )
    except ValueError as error:
        raise SynthesisFailure(f"image region DSL: {error}") from error
    if not chosen:
        raise SynthesisFailure("no covering path program found")
    # Execution order: pattern-validated Relative paths first (they
    # self-check via their stop pattern), then longer Absolute walks before
    # shorter ones, so a 2-step disjunct cannot shadow the 4-fragment case.
    chosen.sort(key=_execution_rank)
    return ImageRegionProgram(paths=tuple(chosen))


def _execution_rank(path: PathProgram) -> tuple[int, int]:
    has_relative = any(isinstance(m, Relative) for m in path.motions)
    reach = sum(
        m.k if isinstance(m, Absolute) else MAX_ABSOLUTE_STEPS + 1
        for m in path.motions
    )
    return (0 if has_relative else 1, -reach)
