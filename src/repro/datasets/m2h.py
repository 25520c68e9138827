"""The M2H (machine-to-human) flight-reservation email dataset.

A seeded synthetic equivalent of the paper's 3503-email dataset from six
providers (Section 7.1).  Each provider has a distinct HTML template whose
*contemporary* variants model within-period variation and whose
*longitudinal* variants add the organic format drift the paper studies:
inserted hotel/car sections, advertisement banners, extra wrapper markup and
re-ordered sections — all outside the regions of interest.

The templates are engineered to reproduce the paper's qualitative analyses:

* ``getthere`` — Figure 1's ``AIR`` blocks; longitudinal hotel/car blocks
  land *between* flight blocks so global ``nth-child`` programs extract
  check-in times (the Figure 2 failure).  A car section occasionally reuses
  the ``Depart:`` label, exercising hierarchical landmarks (Section 6.1).
* ``aeromexico`` — every field node carries a dedicated ``id`` attribute
  ("implicit landmarks"), so global and local synthesis both stay perfect.
* ``mytripsamexgbt`` — a long flight-details section; drift only appends
  short sections, so NDSyn's fragile program keeps working "incidentally".
* ``iflyalaskaair`` — optional boarding rows shift row indices inside the
  flight block; the provider field does not exist (Table 2's missing Pvdr).
* ``airasia`` — time cells sit under per-document random wrapper markup, so
  no consistent global path exists (NDSyn's NaN rows), while From/To column
  swaps make global IATA extraction over-approximate.
* ``delta`` — a columnar flight table plus a greeting whose position shifts
  with promotional banners.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable

from repro.datasets import fields as F
from repro.datasets.base import (
    CONTEMPORARY,
    LONGITUDINAL,
    Corpus,
    LabeledHtmlDocument,
    annotation_attr,
    reuse_train,
)
from repro.datasets.fields import Itinerary
from repro.html.parser import parse_html

PROVIDERS: tuple[str, ...] = (
    "iflyalaskaair",
    "airasia",
    "getthere",
    "delta",
    "aeromexico",
    "mytripsamexgbt",
)

DISPLAY_NAMES = {
    "iflyalaskaair": "Alaska Airlines",
    "airasia": "AirAsia",
    "getthere": "GetThere Travel",
    "delta": "Delta Air Lines",
    "aeromexico": "Aeromexico",
    "mytripsamexgbt": "Amex GBT Travel",
}

AIRLINE_CODES = {
    "iflyalaskaair": "AS",
    "airasia": "AK",
    "getthere": "UA",
    "delta": "DL",
    "aeromexico": "AM",
    "mytripsamexgbt": "BA",
}

# Providers whose templates have a Pvdr node (Table 2: "The Pvdr field is
# not relevant for iflyalaskaair").
PROVIDERS_WITH_PVDR = tuple(p for p in PROVIDERS if p != "iflyalaskaair")

_CITY_OF = {
    "SEA": "Seattle", "LAX": "Los Angeles", "JFK": "New York", "ATL":
    "Atlanta", "ORD": "Chicago", "DFW": "Dallas", "DEN": "Denver", "SFO":
    "San Francisco", "LAS": "Las Vegas", "MIA": "Miami", "PHX": "Phoenix",
    "IAH": "Houston", "BOS": "Boston", "MSP": "Minneapolis", "DTW":
    "Detroit", "PHL": "Philadelphia", "LGA": "New York", "BWI": "Baltimore",
    "SLC": "Salt Lake City", "SAN": "San Diego", "MEX": "Mexico City",
    "CUN": "Cancun", "GDL": "Guadalajara", "KUL": "Kuala Lumpur", "SIN":
    "Singapore", "BKK": "Bangkok", "DPS": "Denpasar", "CGK": "Jakarta",
    "HND": "Tokyo", "LHR": "London",
}


def _city(iata: str) -> str:
    return _CITY_OF.get(iata, "Springfield")


def _v(field_name: str, value: str, text: str | None = None,
       tag: str = "td", extra: str = "") -> str:
    """An annotated value node."""
    shown = value if text is None else text
    attrs = f'{annotation_attr(field_name)}="{value}"'
    if extra:
        attrs += " " + extra
    return f"<{tag} {attrs}>{shown}</{tag}>"


def _v2(fields_values: dict[str, str], text: str, tag: str = "td",
        extra: str = "") -> str:
    """A node annotated with several fields at once."""
    attrs = " ".join(
        f'{annotation_attr(name)}="{value}"'
        for name, value in fields_values.items()
    )
    if extra:
        attrs += " " + extra
    return f"<{tag} {attrs}>{text}</{tag}>"


# ---------------------------------------------------------------------------
# getthere — the Figure 1 provider
# ---------------------------------------------------------------------------

def render_getthere(it: Itinerary, rng: random.Random, setting: str) -> str:
    promo = rng.random() < 0.35
    boarding = rng.random() < 0.25
    long_drift = setting == LONGITUDINAL
    hotel = long_drift and rng.random() < 0.5
    car_depart = rng.random() < (0.3 if not long_drift else 0.4)
    wrapper = long_drift and rng.random() < 0.35

    parts = ['<div class="header"><span>Travel Itinerary</span></div>']
    if promo:
        parts.append(
            '<table class="promo"><tr><td>Earn miles with our partner'
            " hotels</td></tr></table>"
        )
    parts.append(
        '<table class="summary">'
        f"<tr><td>Traveler:</td>{_v(F.NAME, it.name)}</tr>"
        f"<tr><td>Agency Record Locator:</td>{_v(F.RID, it.rid)}</tr>"
        f"<tr><td>Booked via:</td>{_v(F.PVDR, it.provider)}</tr>"
        "</table>"
    )

    blocks = []
    for leg in it.flights:
        rows = [
            "<tr><td>AIR</td><td>Airline Record Locator</td></tr>",
            f"<tr><td>Flight:</td>{_v(F.FNUM, leg.fnum)}<td>Meal</td></tr>",
        ]
        if boarding:
            rows.append(
                f"<tr><td>Boarding closes</td><td>{F.random_time(rng)}"
                "</td><td>Gate</td></tr>"
            )
        rows.append(
            "<tr><td>Depart:</td>"
            + _v2({F.DDATE: leg.ddate, F.DTIME: leg.dtime},
                  f"{leg.ddate} {leg.dtime}")
            + _v(F.DIATA, leg.diata, f"{leg.diata} - {_city(leg.diata)}")
            + "</tr>"
        )
        rows.append(
            "<tr><td>Arrive:</td>"
            + _v(F.ATIME, leg.atime, f"{leg.adate} {leg.atime}")
            + _v(F.AIATA, leg.aiata, f"{leg.aiata} - {_city(leg.aiata)}")
            + "</tr>"
        )
        blocks.append(f"<table>{''.join(rows)}</table>")

    if hotel:
        check_in = F.random_time(rng)
        hotel_block = (
            "<table>"
            "<tr><td>HOTEL</td><td>Grand Plaza</td></tr>"
            f"<tr><td>Check-in:</td><td>{F.random_date(rng)} {check_in}"
            "</td><td>2 nights</td></tr>"
            "</table>"
        )
        blocks.insert(min(1, len(blocks)), hotel_block)

    if car_depart:
        # A car section that reuses the "Depart:" label with an identical
        # row layout: only hierarchical landmarks can reject it.
        car_block = (
            "<table>"
            "<tr><td>CAR</td><td>Compact rental</td></tr>"
            "<tr><td>Depart:</td>"
            f"<td>{F.random_date(rng)} {F.random_time(rng)}</td>"
            f"<td>{rng.choice(('AVIS', 'HERTZ'))} - Downtown</td></tr>"
            f"<tr><td>Return:</td><td>{F.random_date(rng)} "
            f"{F.random_time(rng)}</td><td>Same location</td></tr>"
            "</table>"
        )
        blocks.append(car_block)

    # All itinerary blocks live under one container (the layout Figure 2's
    # NDSyn program navigates): repeated sections are siblings inside it.
    parts.append(f'<div class="blocks">{"".join(blocks)}</div>')
    parts.append('<div class="footer"><span>GetThere Inc.</span></div>')
    body = "".join(parts)
    if wrapper:
        body = f'<div class="rebrand"><div class="inner">{body}</div></div>'
    return f"<html><body>{body}</body></html>"


# ---------------------------------------------------------------------------
# delta — columnar flight table, shifting greeting
# ---------------------------------------------------------------------------

def render_delta(it: Itinerary, rng: random.Random, setting: str) -> str:
    long_drift = setting == LONGITUDINAL
    promo = rng.random() < (0.4 if long_drift else 0.25)
    upsell = long_drift and rng.random() < 0.5
    wrapper = False

    parts = ["<div><h1>Delta Air Lines</h1><p>Your trip receipt</p></div>"]
    if promo:
        parts.append(
            "<div><p>Thank You For Flying Delta SkyMiles Member</p></div>"
        )
    parts.append(f"<div><p>Dear {it.name},</p></div>")
    parts.append(
        "<div><span>Confirmation #:</span>"
        + _v(F.RID, it.rid, tag="span")
        + "</div>"
    )
    parts.append(
        "<div><span>Passenger Name:</span>"
        + _v(F.NAME, it.name, tag="span")
        + "</div>"
    )
    parts.append(
        "<div><span>Issued by:</span>"
        + _v(F.PVDR, it.provider, tag="span")
        + "</div>"
    )
    if upsell:
        parts.append(
            "<div><p>Upgrade to Comfort Plus</p><p>From $59</p></div>"
        )
    header = (
        "<tr><th>Flight</th><th>Origin</th><th>Departs</th>"
        "<th>Destination</th><th>Arrives</th><th>Date</th></tr>"
    )
    rows = [
        "<tr>"
        + _v(F.FNUM, leg.fnum)
        + _v(F.DIATA, leg.diata)
        + _v(F.DTIME, leg.dtime)
        + _v(F.AIATA, leg.aiata)
        + _v(F.ATIME, leg.atime)
        + _v(F.DDATE, leg.ddate)
        + "</tr>"
        for leg in it.flights
    ]
    parts.append(f'<table class="flights">{header}{"".join(rows)}</table>')
    parts.append("<div><p>Baggage allowance and fare rules apply</p></div>")
    body = "".join(parts)
    if wrapper:
        body = f'<div class="refresh">{body}</div>'
    return f"<html><body>{body}</body></html>"


# ---------------------------------------------------------------------------
# aeromexico — dedicated id attributes on every field node
# ---------------------------------------------------------------------------

def render_aeromexico(it: Itinerary, rng: random.Random, setting: str) -> str:
    leg = it.flights[0]
    long_drift = setting == LONGITUDINAL
    banner = rng.random() < 0.3
    restructured = long_drift and rng.random() < 0.5

    core = (
        "<div id='trip'>"
        "<div><span>Passenger:</span>"
        + _v(F.NAME, it.name, tag="span", extra='id="passenger-name"')
        + "</div>"
        "<div><span>Reservation code:</span>"
        + _v(F.RID, it.rid, tag="span", extra='id="reservation-code"')
        + "</div>"
        "<div><span>Airline:</span>"
        + _v(F.PVDR, it.provider, tag="span", extra='id="airline-name"')
        + "</div>"
        "<div><span>Flight:</span>"
        + _v(F.FNUM, leg.fnum, tag="span", extra='id="flight-number"')
        + "</div>"
        "<div><span>Departure city:</span>"
        + _v(F.DIATA, leg.diata, tag="span", extra='id="departure-city"')
        + "</div>"
        "<div><span>Departure date:</span>"
        + _v(F.DDATE, leg.ddate, tag="span", extra='id="departure-date"')
        + "</div>"
        "<div><span>Departure time:</span>"
        + _v(F.DTIME, leg.dtime, tag="span", extra='id="departure-time"')
        + "</div>"
        "<div><span>Arrival city:</span>"
        + _v(F.AIATA, leg.aiata, tag="span", extra='id="arrival-city"')
        + "</div>"
        "<div><span>Arrival time:</span>"
        + _v(F.ATIME, leg.atime, tag="span", extra='id="arrival-time"')
        + "</div>"
        "</div>"
    )
    pieces = ["<div><h2>Aeromexico</h2></div>"]
    if banner:
        pieces.append("<div><p>Discover Mexico fares</p></div>")
    if restructured:
        core = f"<table><tr><td>{core}</td></tr></table>"
        pieces.append("<div><p>New look same great service</p></div>")
    pieces.append(core)
    pieces.append("<div><p>Aeromexico S.A. de C.V.</p></div>")
    return f"<html><body>{''.join(pieces)}</body></html>"


# ---------------------------------------------------------------------------
# mytripsamexgbt — long flight-details section; drift appends only
# ---------------------------------------------------------------------------

def render_mytrips(it: Itinerary, rng: random.Random, setting: str) -> str:
    long_drift = setting == LONGITUDINAL
    car = long_drift and rng.random() < 0.5
    hotel = long_drift and rng.random() < 0.5

    head = (
        '<table class="head">'
        f"<tr><td>Traveler name</td>{_v(F.NAME, it.name)}</tr>"
        f"<tr><td>Record locator</td>{_v(F.RID, it.rid)}</tr>"
        f"<tr><td>Agency</td>{_v(F.PVDR, it.provider)}</tr>"
        "</table>"
    )
    leg_tables = []
    for leg in it.flights:
        rows = [
            "<tr><td>Flight details</td><td></td></tr>",
            f"<tr><td>Airline</td><td>British Airways</td></tr>",
            f"<tr><td>Flight number</td>{_v(F.FNUM, leg.fnum)}</tr>",
            f"<tr><td>Cabin</td><td>{rng.choice(('Economy', 'Business'))}</td></tr>",
            f"<tr><td>Departure airport</td>{_v(F.DIATA, leg.diata)}</tr>",
            f"<tr><td>Departure date</td>{_v(F.DDATE, leg.ddate)}</tr>",
            f"<tr><td>Departure time</td>{_v(F.DTIME, leg.dtime)}</tr>",
            f"<tr><td>Arrival airport</td>{_v(F.AIATA, leg.aiata)}</tr>",
            f"<tr><td>Arrival time</td>{_v(F.ATIME, leg.atime)}</tr>",
            f"<tr><td>Seat</td><td>{rng.randint(1, 40)}{rng.choice('ABCDEF')}</td></tr>",
            "<tr><td>Baggage</td><td>1 checked bag</td></tr>",
            "<tr><td>Status</td><td>Confirmed</td></tr>",
        ]
        leg_tables.append(f'<table class="flight">{"".join(rows)}</table>')

    tail = []
    if car:
        tail.append(
            '<table class="carrental"><tr><td>Car rental</td></tr>'
            f"<tr><td>Pick-up</td><td>{F.random_date(rng)}</td></tr>"
            "<tr><td>Vendor</td><td>National</td></tr></table>"
        )
    if hotel:
        tail.append(
            '<table class="hotelres"><tr><td>Hotel</td></tr>'
            f"<tr><td>Check-in</td><td>{F.random_date(rng)}</td></tr>"
            "<tr><td>Nights</td><td>2</td></tr></table>"
        )
    tail.append('<div class="legal"><p>Amex GBT terms of service</p></div>')
    return (
        "<html><body><div><h3>My Trips</h3></div>"
        + head
        + "".join(leg_tables)
        + "".join(tail)
        + "</body></html>"
    )


# ---------------------------------------------------------------------------
# iflyalaskaair — optional boarding rows shift indices; no Pvdr field
# ---------------------------------------------------------------------------

def render_alaska(it: Itinerary, rng: random.Random, setting: str) -> str:
    long_drift = setting == LONGITUDINAL
    boarding_rate = 0.45 if long_drift else 0.25
    mileage = long_drift and rng.random() < 0.4

    parts = [
        "<div><h2>Alaska Airlines</h2></div>",
        '<table class="resv">'
        f"<tr><td>Passenger</td>{_v(F.NAME, it.name)}</tr>"
        f"<tr><td>Confirmation code</td>{_v(F.RID, it.rid)}</tr>"
        "</table>",
    ]
    if mileage:
        parts.append(
            "<div><p>Mileage Plan summary</p><p>Elite qualifying miles"
            " earned this trip</p></div>"
        )
    legs = []
    for leg in it.flights:
        rows = [
            f"<tr><td>Flight</td>{_v(F.FNUM, leg.fnum)}</tr>",
            f"<tr><td>Travel Date</td>{_v(F.DDATE, leg.ddate)}</tr>",
        ]
        if rng.random() < boarding_rate:
            rows.append(
                f"<tr><td>Boarding</td><td>{F.random_time(rng)}</td></tr>"
            )
        rows.append(
            "<tr><td>Departs</td>"
            + _v(F.DTIME, leg.dtime)
            + _v(F.DIATA, leg.diata, f"{leg.diata} {_city(leg.diata)}")
            + "</tr>"
        )
        if rng.random() < boarding_rate / 2:
            rows.append(
                "<tr><td>Operated by</td><td>Horizon Air</td></tr>"
            )
        rows.append(
            "<tr><td>Arrives</td>"
            + _v(F.ATIME, leg.atime)
            + _v(F.AIATA, leg.aiata, f"{leg.aiata} {_city(leg.aiata)}")
            + "</tr>"
        )
        if rng.random() < 0.25:
            rows.append(
                f"<tr><td>Baggage claim</td><td>Carousel {rng.randint(1, 9)}"
                "</td></tr>"
            )
        legs.append(f"<table>{''.join(rows)}</table>")
    parts.append(f'<div class="legs">{"".join(legs)}</div>')
    parts.append("<div><p>ifly.alaskaair.com</p></div>")
    return f"<html><body>{''.join(parts)}</body></html>"


# ---------------------------------------------------------------------------
# airasia — random wrapper depth around the schedule; From/To swaps
# ---------------------------------------------------------------------------

def render_airasia(it: Itinerary, rng: random.Random, setting: str) -> str:
    swap = rng.random() < 1 / 3
    parts = [
        "<div><h2>AirAsia</h2></div>",
        '<table class="guest">'
        f"<tr><td>Guest name</td>{_v(F.NAME, it.name)}</tr>"
        f"<tr><td>Booking number</td>{_v(F.RID, it.rid)}</tr>"
        f"<tr><td>Carrier</td>{_v(F.PVDR, it.provider)}</tr>"
        "</table>",
    ]
    for leg in it.flights:
        from_cell = _v(F.DIATA, leg.diata)
        to_cell = _v(F.AIATA, leg.aiata)
        if swap:
            route = (
                f"<tr><td>Destination</td>{to_cell}"
                f"<td>Origin</td>{from_cell}</tr>"
            )
        else:
            route = (
                f"<tr><td>Origin</td>{from_cell}"
                f"<td>Destination</td>{to_cell}</tr>"
            )
        return_date = F.random_date(rng)
        if swap:
            date_row = (
                f"<tr><td>Return</td><td>{return_date}</td>"
                f"<td>Date</td>{_v(F.DDATE, leg.ddate)}</tr>"
            )
        else:
            date_row = (
                f"<tr><td>Date</td>{_v(F.DDATE, leg.ddate)}"
                f"<td>Return</td><td>{return_date}</td></tr>"
            )
        main = (
            '<table class="route">'
            f"<tr><td>Flight no</td>{_v(F.FNUM, leg.fnum)}</tr>"
            + route
            + date_row
            + "</table>"
        )
        schedule = (
            '<table class="sched">'
            f"<tr><td>Departs</td>{_v(F.DTIME, leg.dtime)}</tr>"
            f"<tr><td>Arrives</td>{_v(F.ATIME, leg.atime)}</tr>"
            "</table>"
        )
        # Per-document random wrapper stack: global paths to the schedule
        # cells are inconsistent across documents, so no root-anchored
        # selector generalizes (NDSyn's NaN rows in Table 2).
        for _ in range(rng.randint(0, 3)):
            tag = rng.choice(("div", "span", "b", "center"))
            schedule = f"<{tag}>{schedule}</{tag}>"
        parts.append(main)
        parts.append(schedule)
    parts.append("<div><p>AirAsia Berhad</p></div>")
    return f"<html><body>{''.join(parts)}</body></html>"


RENDERERS: dict[str, Callable[[Itinerary, random.Random, str], str]] = {
    "getthere": render_getthere,
    "delta": render_delta,
    "aeromexico": render_aeromexico,
    "mytripsamexgbt": render_mytrips,
    "iflyalaskaair": render_alaska,
    "airasia": render_airasia,
}

_SINGLE_LEG_PROVIDERS = frozenset({"aeromexico"})


def render_document(
    provider: str, rng: random.Random, setting: str
) -> tuple[str, dict[str, list[str]]]:
    """One email's HTML source and ground truth, unparsed: draws every
    random value the page takes from ``rng``."""
    max_legs = 1 if provider in _SINGLE_LEG_PROVIDERS else 3
    itinerary = F.random_itinerary(
        rng,
        provider=DISPLAY_NAMES[provider],
        airline_code=AIRLINE_CODES[provider],
        max_legs=max_legs,
    )
    html = RENDERERS[provider](itinerary, rng, setting)
    truth = itinerary.field_values()
    if provider == "iflyalaskaair":
        truth.pop(F.PVDR, None)
    return html, truth


def generate_document(
    provider: str, rng: random.Random, setting: str
) -> LabeledHtmlDocument:
    """Generate one labeled email for ``provider`` under ``setting``."""
    html, truth = render_document(provider, rng, setting)
    return LabeledHtmlDocument(
        doc=parse_html(html), truth=truth, provider=provider, setting=setting
    )


def generate_corpus(
    provider: str,
    train_size: int = 60,
    test_size: int = 520,
    setting: str = CONTEMPORARY,
    seed: int = 0,
    train: list[LabeledHtmlDocument] | None = None,
) -> Corpus:
    """Train/test corpus for one provider.

    Training documents are always contemporary (the paper trains on one time
    period); ``setting`` selects the test period.  ``train``, the training
    set of a corpus with the same provider, sizes and seed, becomes this
    corpus's training set as it is (see
    :func:`repro.datasets.base.reuse_train`).
    """
    provider_salt = zlib.crc32(provider.encode("utf-8"))
    rng = random.Random(provider_salt * 7919 + seed)
    if train is None:
        train = [
            generate_document(provider, rng, CONTEMPORARY)
            for _ in range(train_size)
        ]
    else:
        reuse_train(
            train, train_size,
            lambda: render_document(provider, rng, CONTEMPORARY)[0],
        )
    test = [
        generate_document(provider, rng, setting) for _ in range(test_size)
    ]
    return Corpus(provider=provider, train=train, test=test)


def fields_for(provider: str) -> tuple[str, ...]:
    """The fields evaluated for a provider (Pvdr missing for Alaska)."""
    if provider == "iflyalaskaair":
        return tuple(f for f in F.M2H_FIELDS if f != F.PVDR)
    return F.M2H_FIELDS
