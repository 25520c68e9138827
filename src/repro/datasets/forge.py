"""The synthetic document forge: seeded generation of *new* providers.

The paper's corpora are frozen at four providers; the forge invents as
many as asked for.  Each provider ``forgeNNN`` is a deterministic function
of its name and the corpus seed: a layout family (``ledger`` label/value
table, ``grid`` columnar header table, or ``panel`` div/span pairs), a
locale (dates, currency symbols and digit grouping), a CSS-class
vocabulary, per-field label wordings, and an optional line-items section.
Documents are built as a layout IR (:mod:`repro.datasets.forge_transforms`)
and rendered to HTML with ``data-f-*`` ground-truth annotations, so forged
corpora plug into the existing :class:`~repro.datasets.base.Corpus` /
``Domain`` machinery unchanged.

Longitudinal test documents drift through the IR transforms (DOM shuffles,
wrapper churn, class renames, label rewording, injected noise); image
providers render the same pages to text boxes, pass them through the OCR
simulator, and degrade them with scan effects (rotation, blur, noise,
downsampling, translation) in the style of ``apply_scan_effects`` from the
related test-data generators.

Determinism contract: every document is a pure function of
``(provider, seed, draw position)`` via :class:`random.Random` streams
salted with ``zlib.crc32`` of the provider name — nothing depends on hash
randomization, so corpora are byte-identical across processes and
``PYTHONHASHSEED`` values.  The field set of a provider depends on the
provider *name only* (not the seed), keeping the registry task graph
stable while different seeds still produce visibly different providers.

Scale knobs (also exposed as CLI flags ``--providers`` / ``--docs``):

* ``REPRO_FORGE_PROVIDERS`` — how many providers the forge enumerates.
* ``REPRO_FORGE_DOCS`` — nominal documents per provider before
  ``REPRO_SCALE`` is applied by the experiment drivers.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pathlib
import random
import zlib
from dataclasses import dataclass

from repro.datasets import forge_transforms as transforms
from repro.datasets.base import (
    CONTEMPORARY,
    LONGITUDINAL,
    SETTINGS,
    Corpus,
    LabeledHtmlDocument,
    reuse_train,
)
from repro.datasets.finance import LabeledImageDocument
from repro.datasets.forge_transforms import (
    Cell,
    PageLayout,
    Row,
    Section,
)
from repro.html.parser import parse_html
from repro.images.ocr import OcrConfig, OcrSimulator
from repro.images.render import render_to_boxes

# ----------------------------------------------------------------------
# Scale knobs
# ----------------------------------------------------------------------
DEFAULT_PROVIDERS = 6
DEFAULT_DOCS = 200


def forge_provider_count() -> int:
    return max(1, int(os.environ.get("REPRO_FORGE_PROVIDERS", DEFAULT_PROVIDERS)))


def forge_docs() -> int:
    """Nominal documents per provider (before ``REPRO_SCALE``)."""
    return max(8, int(os.environ.get("REPRO_FORGE_DOCS", DEFAULT_DOCS)))


def forge_providers() -> list[str]:
    return [f"forge{index:03d}" for index in range(forge_provider_count())]


def config_fingerprint() -> str:
    """The forge configuration a shard split must agree on.

    Folded into the shard graph digest: ``REPRO_FORGE_DOCS`` changes
    corpus sizes (and therefore scores) without changing the task graph,
    so partials generated under different knob values must not merge.
    """
    return f"forge|providers={forge_provider_count()}|docs={forge_docs()}"


# ----------------------------------------------------------------------
# Fields
# ----------------------------------------------------------------------
ORDER_ID = "OrderId"
CUSTOMER = "Customer"
EMAIL = "Email"
ORDER_DATE = "OrderDate"
TOTAL = "Total"
STATUS = "Status"
ITEM = "Item"
QTY = "Qty"

CORE_FIELDS = (ORDER_ID, ORDER_DATE, TOTAL)
OPTIONAL_FIELDS = (CUSTOMER, EMAIL, STATUS)
ITEM_FIELDS = (ITEM, QTY)
FORGE_FIELDS = CORE_FIELDS + OPTIONAL_FIELDS + ITEM_FIELDS

LABEL_POOL = {
    ORDER_ID: ("Order number", "Order ID", "Reference", "Confirmation no."),
    CUSTOMER: ("Customer", "Billed to", "Client name", "Account holder"),
    EMAIL: ("Email", "Contact email", "E-mail address"),
    ORDER_DATE: ("Order date", "Issued", "Date", "Placed on"),
    TOTAL: ("Total", "Amount due", "Grand total", "Balance"),
    STATUS: ("Status", "Order status", "State"),
    ITEM: ("Item", "SKU", "Article"),
    QTY: ("Qty", "Quantity", "Units"),
}


def _salted(*parts: object) -> random.Random:
    """A hash-seed-independent RNG keyed on the joined parts."""
    key = "|".join(str(part) for part in parts)
    return random.Random(zlib.crc32(key.encode("utf-8")))


@functools.lru_cache(maxsize=4096)
def fields_for(provider: str) -> tuple[str, ...]:
    """The provider's extraction fields.

    Deliberately a function of the provider *name only* — the registry
    task graph must not move when the corpus seed does.
    """
    rng = _salted("fields", provider)
    fields = list(CORE_FIELDS)
    fields += [f for f in OPTIONAL_FIELDS if rng.random() < 0.6]
    if rng.random() < 0.5:
        fields += list(ITEM_FIELDS)
    return tuple(fields)


def image_fields_for(provider: str) -> tuple[str, ...]:
    """The image experiment's fields: image annotations group boxes by
    value, so ``Qty`` (whose small integers repeat across line items) is
    excluded from the image task graph."""
    return tuple(f for f in fields_for(provider) if f != QTY)


# ----------------------------------------------------------------------
# Provider specs
# ----------------------------------------------------------------------
FAMILIES = ("ledger", "grid", "panel")
LOCALES = ("en-US", "en-GB", "de-DE", "fr-FR", "ms-MY")
_ROLES = (
    "page", "head", "fields", "row", "label", "value", "items", "footer",
)

_BRAND_HEADS = (
    "Northwind", "Cobalt", "Juniper", "Atlas", "Meridian", "Lakeview",
    "Harbor", "Quill",
)
_BRAND_TAILS = (
    "Outfitters", "Supply Co.", "Trading", "Direct", "Market", "Depot",
)


@dataclass(frozen=True)
class ForgeSpec:
    """Everything that makes one forged provider itself."""

    provider: str
    seed: int
    family: str
    locale: str
    brand: str
    fields: tuple[str, ...]
    labels: tuple[tuple[str, str], ...]
    label_suffix: str
    classes: tuple[tuple[str, str], ...]
    id_attrs: bool
    wrapper_count: int

    def label(self, field: str) -> str:
        return dict(self.labels)[field] + self.label_suffix

    def css(self, role: str) -> str:
        return dict(self.classes)[role]


@functools.lru_cache(maxsize=4096)
def provider_spec(provider: str, seed: int = 0) -> ForgeSpec:
    rng = random.Random(
        zlib.crc32(("spec|" + provider).encode("utf-8")) * 7919 + seed
    )
    fields = fields_for(provider)
    return ForgeSpec(
        provider=provider,
        seed=seed,
        family=rng.choice(FAMILIES),
        locale=rng.choice(LOCALES),
        brand=f"{rng.choice(_BRAND_HEADS)} {rng.choice(_BRAND_TAILS)}",
        fields=fields,
        labels=tuple((f, rng.choice(LABEL_POOL[f])) for f in fields),
        label_suffix=":" if rng.random() < 0.5 else "",
        classes=tuple(
            (role, "f" + "".join(rng.choice("0123456789abcdef") for _ in range(5)))
            for role in _ROLES
        ),
        id_attrs=rng.random() < 0.5,
        wrapper_count=rng.randint(1, 2),
    )


# ----------------------------------------------------------------------
# Record sampling (the ground truth)
# ----------------------------------------------------------------------
_FIRST_NAMES = (
    "Ava", "Noah", "Mia", "Liam", "Zoe", "Omar", "Ines", "Kai", "Lena",
    "Hugo", "Sara", "Ivan",
)
_LAST_NAMES = (
    "Tan", "Muller", "Rossi", "Okafor", "Dubois", "Larsen", "Khan",
    "Weber", "Silva", "Novak", "Ito", "Moreau",
)
_MAIL_DOMAINS = ("example.com", "mail.test", "inbox.dev", "post.example")
_STATUSES = ("Confirmed", "Pending", "Shipped", "Refunded", "On hold")
_SKU_PREFIXES = ("KB", "MX", "TR", "VL", "PX", "GH")
_PRODUCT_WORDS = (
    "Bolt", "Widget", "Gasket", "Sprocket", "Flange", "Washer", "Bracket",
    "Spindle",
)
_FOOTERS = (
    "All prices include applicable taxes.",
    "Registered office: 4 Harbor Lane.",
    "Keep this receipt for your records.",
    "Returns accepted within 30 days.",
)
_ID_LETTERS = "ABCDEFGHJKMNPQRSTUVWXYZ"

_EN_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct",
    "Nov", "Dec",
)
_DE_MONTHS = (
    "Jan.", "Feb.", "März", "Apr.", "Mai", "Juni", "Juli", "Aug.",
    "Sept.", "Okt.", "Nov.", "Dez.",
)
_FR_MONTHS = (
    "janv.", "févr.", "mars", "avr.", "mai", "juin", "juil.", "août",
    "sept.", "oct.", "nov.", "déc.",
)


def _format_date(rng: random.Random, locale: str) -> str:
    day = rng.randint(1, 28)
    month = rng.randint(0, 11)
    year = rng.randint(2023, 2026)
    if locale == "en-US":
        return f"{_EN_MONTHS[month]} {day}, {year}"
    if locale == "en-GB":
        return f"{day} {_EN_MONTHS[month]} {year}"
    if locale == "de-DE":
        return f"{day}. {_DE_MONTHS[month]} {year}"
    if locale == "fr-FR":
        return f"{day} {_FR_MONTHS[month]} {year}"
    return f"{day:02d}/{month + 1:02d}/{year}"  # ms-MY


def currency_symbol(locale: str) -> str:
    return {
        "en-US": "$", "en-GB": "£", "de-DE": "€", "fr-FR": "€", "ms-MY": "RM",
    }[locale]


def format_amount(cents: int, locale: str) -> str:
    """Locale digit grouping plus the currency symbol."""
    units, rem = divmod(cents, 100)
    grouped = f"{units:,}"
    if locale == "de-DE":
        amount = grouped.replace(",", ".") + f",{rem:02d}"
    elif locale == "fr-FR":
        amount = grouped.replace(",", " ") + f",{rem:02d}"
    else:
        amount = grouped + f".{rem:02d}"
    symbol = currency_symbol(locale)
    return f"{symbol} {amount}" if len(symbol) > 1 else f"{symbol}{amount}"


@dataclass(frozen=True)
class LineItem:
    sku: str
    name: str
    qty: int
    unit_cents: int


@dataclass(frozen=True)
class OrderRecord:
    order_id: str
    customer: str
    email: str
    date: str
    status: str
    total: str
    items: tuple[LineItem, ...]


def random_order(rng: random.Random, spec: ForgeSpec) -> OrderRecord:
    first = rng.choice(_FIRST_NAMES)
    last = rng.choice(_LAST_NAMES)
    items = []
    skus: list[str] = []
    for _ in range(rng.randint(1, 4)):
        sku = f"{rng.choice(_SKU_PREFIXES)}-{rng.randint(100, 999)}"
        while sku in skus:  # unique: image annotations group boxes by value
            sku = f"{rng.choice(_SKU_PREFIXES)}-{rng.randint(100, 999)}"
        skus.append(sku)
        items.append(
            LineItem(
                sku=sku,
                name=f"{rng.choice(_PRODUCT_WORDS)} "
                f"{rng.choice(_PRODUCT_WORDS).lower()}",
                qty=rng.randint(1, 9),
                unit_cents=rng.randint(199, 19999),
            )
        )
    total_cents = sum(item.qty * item.unit_cents for item in items)
    return OrderRecord(
        order_id=(
            f"{rng.choice(_ID_LETTERS)}{rng.choice(_ID_LETTERS)}"
            f"-{rng.randint(100000, 999999)}"
        ),
        customer=f"{first} {last}",
        email=f"{first.lower()}.{last.lower()}{rng.randint(1, 99)}"
        f"@{rng.choice(_MAIL_DOMAINS)}",
        date=_format_date(rng, spec.locale),
        status=rng.choice(_STATUSES),
        total=format_amount(total_cents, spec.locale),
        items=tuple(items),
    )


def field_values(record: OrderRecord, fields: tuple[str, ...]) -> dict:
    """Ground truth per field, in document (row) order."""
    table = {
        ORDER_ID: [record.order_id],
        CUSTOMER: [record.customer],
        EMAIL: [record.email],
        ORDER_DATE: [record.date],
        TOTAL: [record.total],
        STATUS: [record.status],
        ITEM: [item.sku for item in record.items],
        QTY: [str(item.qty) for item in record.items],
    }
    return {field: table[field] for field in fields}


# ----------------------------------------------------------------------
# Layout construction
# ----------------------------------------------------------------------
def _scalar_value(record: OrderRecord, field: str) -> str:
    return field_values(record, (field,))[field][0]


def build_layout(
    spec: ForgeSpec, record: OrderRecord, rng: random.Random
) -> PageLayout:
    """The provider's page for one record, before any drift."""
    scalars = [f for f in spec.fields if f not in ITEM_FIELDS]
    sections = [
        Section(
            kind="head",
            tag="div",
            classes=(spec.css("head"),),
            rows=[Row(tag="div", cells=[Cell(text=spec.brand)])],
        )
    ]
    if spec.family == "ledger":
        sections.append(
            Section(
                kind="fields",
                tag="table",
                roi=True,
                classes=(spec.css("fields"),),
                rows=[
                    Row(
                        classes=(spec.css("row"),),
                        cells=[
                            Cell(
                                text=spec.label(field),
                                classes=(spec.css("label"),),
                                label_for=field,
                            ),
                            Cell(
                                text=_scalar_value(record, field),
                                field=field,
                                classes=(spec.css("value"),),
                            ),
                        ],
                    )
                    for field in scalars
                ],
            )
        )
    elif spec.family == "grid":
        sections.append(
            Section(
                kind="fields",
                tag="table",
                roi=True,
                classes=(spec.css("fields"),),
                rows=[
                    Row(
                        header=True,
                        cells=[
                            Cell(text=spec.label(field), label_for=field)
                            for field in scalars
                        ],
                    ),
                    Row(
                        classes=(spec.css("row"),),
                        cells=[
                            Cell(
                                text=_scalar_value(record, field),
                                field=field,
                                classes=(spec.css("value"),),
                            )
                            for field in scalars
                        ],
                    ),
                ],
            )
        )
    else:  # panel
        sections.append(
            Section(
                kind="fields",
                tag="div",
                roi=True,
                classes=(spec.css("fields"),),
                rows=[
                    Row(
                        tag="div",
                        classes=(spec.css("row"),),
                        cells=[
                            Cell(
                                text=spec.label(field),
                                classes=(spec.css("label"),),
                                label_for=field,
                            ),
                            Cell(
                                text=_scalar_value(record, field),
                                field=field,
                                classes=(spec.css("value"),),
                                dom_id=(
                                    f"fv-{field.lower()}"
                                    if spec.id_attrs
                                    else None
                                ),
                            ),
                        ],
                    )
                    for field in scalars
                ],
            )
        )
    if ITEM in spec.fields:
        sections.append(
            Section(
                kind="items",
                tag="table",
                roi=True,
                classes=(spec.css("items"),),
                rows=[
                    Row(
                        header=True,
                        cells=[
                            Cell(text=spec.label(ITEM), label_for=ITEM),
                            Cell(text=spec.label(QTY), label_for=QTY),
                            Cell(text="Description"),
                        ],
                    )
                ]
                + [
                    Row(
                        classes=(spec.css("row"),),
                        cells=[
                            Cell(text=item.sku, field=ITEM),
                            Cell(text=str(item.qty), field=QTY),
                            Cell(text=item.name),
                        ],
                    )
                    for item in record.items
                ],
            )
        )
    if rng.random() < 0.4:
        sections.append(
            Section(
                kind="promo",
                tag="div",
                classes=(spec.css("footer"),),
                rows=[
                    Row(
                        tag="div",
                        cells=[Cell(text=rng.choice(transforms._NOISE_BLURBS))],
                    )
                ],
            )
        )
    sections.append(
        Section(
            kind="footer",
            tag="div",
            classes=(spec.css("footer"),),
            rows=[Row(tag="div", cells=[Cell(text=rng.choice(_FOOTERS))])],
        )
    )
    return PageLayout(
        title=spec.brand,
        sections=sections,
        wrappers=tuple(spec.css("page") for _ in range(spec.wrapper_count)),
    )


# ----------------------------------------------------------------------
# Corpus generation — HTML
# ----------------------------------------------------------------------
def render_document(
    provider: str,
    rng: random.Random,
    setting: str = CONTEMPORARY,
    seed: int = 0,
) -> tuple[str, dict[str, list[str]]]:
    """One page's HTML source and ground truth, unparsed: draws every
    random value the page takes from ``rng``."""
    spec = provider_spec(provider, seed)
    record = random_order(rng, spec)
    layout = build_layout(spec, record, rng)
    if setting == LONGITUDINAL:
        layout = transforms.apply_drift(layout, rng.randint(1, 3), rng)
    return transforms.render_html(layout), field_values(record, spec.fields)


def generate_document(
    provider: str,
    rng: random.Random,
    setting: str = CONTEMPORARY,
    seed: int = 0,
) -> LabeledHtmlDocument:
    html, truth = render_document(provider, rng, setting, seed)
    return LabeledHtmlDocument(
        doc=parse_html(html), truth=truth, provider=provider, setting=setting
    )


def generate_corpus(
    provider: str,
    train_size: int = 8,
    test_size: int = 22,
    setting: str = CONTEMPORARY,
    seed: int = 0,
    train: list[LabeledHtmlDocument] | None = None,
) -> Corpus:
    """Train on contemporary pages, test on ``setting`` pages — the same
    split shape, and the same reuse of a given ``train``, as
    :func:`repro.datasets.m2h.generate_corpus`."""
    rng = random.Random(zlib.crc32(provider.encode("utf-8")) * 6841 + seed)
    if train is None:
        train = [
            generate_document(provider, rng, CONTEMPORARY, seed)
            for _ in range(train_size)
        ]
    else:
        reuse_train(
            train, train_size,
            lambda: render_document(provider, rng, CONTEMPORARY, seed)[0],
        )
    test = [
        generate_document(provider, rng, setting, seed)
        for _ in range(test_size)
    ]
    return Corpus(provider=provider, train=train, test=test)


# ----------------------------------------------------------------------
# Corpus generation — images
# ----------------------------------------------------------------------
# Value splitting mirrors the paper's OCR behaviour; geometric noise is
# left to the scan-effect transforms so train/test severity can differ.
FORGE_OCR = OcrConfig(
    split_probability=0.35,
    max_fragments=3,
    jitter=1.0,
    max_translation=0.0,
    max_tilt_degrees=0.0,
    char_noise=0.0,
)


def _unique(values: list[str]) -> list[str]:
    out: list[str] = []
    for value in values:
        if value not in out:
            out.append(value)
    return out


def generate_image_document(
    provider: str,
    rng: random.Random,
    profile: transforms.ScanProfile,
    seed: int = 0,
) -> LabeledImageDocument:
    labeled = generate_document(provider, rng, CONTEMPORARY, seed)
    page = render_to_boxes(labeled.doc)
    scanned = OcrSimulator(FORGE_OCR).scan(page, rng)
    degraded = transforms.apply_scan_effects(scanned, rng, profile)
    # Image annotations group boxes by tag value, so truth is deduplicated
    # (only Qty ever repeats; it is excluded from the image task graph).
    truth = {
        field: _unique(values) for field, values in labeled.truth.items()
    }
    return LabeledImageDocument(
        doc=degraded, truth=truth, provider=provider, setting=CONTEMPORARY
    )


def generate_image_corpus(
    provider: str,
    train_size: int = 6,
    test_size: int = 12,
    seed: int = 0,
) -> Corpus:
    """Mildly-degraded training scans, harshly-degraded test scans."""
    rng = random.Random(
        zlib.crc32(("img|" + provider).encode("utf-8")) * 4099 + seed
    )
    train = [
        generate_image_document(provider, rng, transforms.TRAIN_SCAN, seed)
        for _ in range(train_size)
    ]
    test = [
        generate_image_document(provider, rng, transforms.TEST_SCAN, seed)
        for _ in range(test_size)
    ]
    return Corpus(provider=provider, train=train, test=test)


# ----------------------------------------------------------------------
# Digests + CLI
# ----------------------------------------------------------------------
def corpus_digest(corpus: Corpus) -> str:
    """A byte-stable fingerprint of everything a corpus contains.

    Two corpora digest equal only when every document's serialized form
    (HTML source, or image-box fingerprint) *and* its ground truth match
    exactly — the determinism contract the CI forge-smoke gate checks.
    """
    hasher = hashlib.sha256()
    for labeled in list(corpus.train) + list(corpus.test):
        source = getattr(labeled.doc, "source", None)
        payload = source if source else labeled.doc.fingerprint()
        hasher.update(payload.encode("utf-8"))
        hasher.update(json.dumps(labeled.truth, sort_keys=True).encode("utf-8"))
        hasher.update(labeled.setting.encode("utf-8"))
    return hasher.hexdigest()


def _write_corpus(corpus: Corpus, root: pathlib.Path, images: bool) -> None:
    root.mkdir(parents=True, exist_ok=True)
    truth: dict[str, dict] = {}
    for split in ("train", "test"):
        for position, labeled in enumerate(getattr(corpus, split)):
            stem = f"{split}_{position:04d}"
            if images:
                boxes = [
                    {
                        "text": box.text,
                        "x": box.x, "y": box.y, "w": box.w, "h": box.h,
                        "tags": box.tags,
                    }
                    for box in labeled.doc.boxes
                ]
                (root / f"{stem}.json").write_text(
                    json.dumps(boxes, indent=1, sort_keys=True)
                )
            else:
                (root / f"{stem}.html").write_text(labeled.doc.source)
            truth[stem] = labeled.truth
    (root / "truth.json").write_text(json.dumps(truth, indent=1, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.datasets.forge",
        description=(
            "Generate seeded synthetic provider corpora and print one"
            " digest line per provider (the CI determinism gate compares"
            " two invocations byte-for-byte)."
        ),
    )
    parser.add_argument(
        "--providers", type=int, default=None,
        help="provider count (default: REPRO_FORGE_PROVIDERS)",
    )
    parser.add_argument(
        "--docs", type=int, default=None,
        help="documents per provider (default: REPRO_FORGE_DOCS)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setting", default=LONGITUDINAL, choices=SETTINGS)
    parser.add_argument(
        "--images", action="store_true",
        help="generate degraded image corpora instead of HTML",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write documents + truth.json under this directory",
    )
    args = parser.parse_args(argv)
    if args.providers is not None:
        os.environ["REPRO_FORGE_PROVIDERS"] = str(args.providers)
    if args.docs is not None:
        os.environ["REPRO_FORGE_DOCS"] = str(args.docs)
    docs = forge_docs()
    train_size = max(2, docs // 4)
    test_size = max(2, docs - train_size)
    for provider in forge_providers():
        if args.images:
            corpus = generate_image_corpus(
                provider, train_size, test_size, seed=args.seed
            )
        else:
            corpus = generate_corpus(
                provider, train_size, test_size,
                setting=args.setting, seed=args.seed,
            )
        if args.out:
            _write_corpus(
                corpus, pathlib.Path(args.out) / provider, args.images
            )
        print(f"{provider} {corpus_digest(corpus)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
