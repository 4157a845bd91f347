"""The packaged tables hold every value in the kind its class field declares.

The loaders build each class from its JSON mapping by field name, with the
values as written and nothing converted but the ``scs_factor`` keys.  So a
table value of another kind (``40`` where a float is meant, ``true`` where a
count is) would reach the models as it is; these tests pin that none ships.

The tables shipped as YAML before they were JSON.  That YAML is frozen in
``tests/yaml_tables`` with its comments, and every record the loaders build
from the JSON must equal the one they build from it through ``yamlio.parse``;
a deliberate retune edits both.
"""

import types
import typing
from pathlib import Path

import pytest

from nrusim import calibration, rflink, spectrum, yamlio
from nrusim.calibration import Calibration, load_calibration
from nrusim.rflink import HostModel, SdrModel, load_hardware_profiles
from nrusim.spectrum import (
    RasterSpan,
    RegulatoryRule,
    SyncRasterEntry,
    load_band_plans,
    load_regulatory_rules,
)
from nrusim.tables import load_data

YAML_TABLES = Path(__file__).parent / "yaml_tables"


def _fits(value, hint) -> bool:
    """Whether ``value`` is exactly of ``hint``: an int is no float and a bool no int."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in args)
    if origin is dict:
        return type(value) is dict and all(_fits(k, args[0]) and _fits(v, args[1])
                                           for k, v in value.items())
    if origin is tuple:  # tuple[X, ...]
        return type(value) is tuple and all(_fits(item, args[0]) for item in value)
    if hint is type(None):
        return value is None
    return type(value) is hint and (not hasattr(hint, "_fields") or not _misfits(value))


def _misfits(record) -> list[str]:
    """The fields of a named-tuple record whose values are not of their annotated kind."""
    hints = typing.get_type_hints(type(record))
    return [f"{type(record).__name__}.{name} = {value!r}"
            for name, value in record._asdict().items() if not _fits(value, hints[name])]


def _shipped_records():
    hosts, sdrs = load_hardware_profiles()
    plans = load_band_plans().values()
    spans = [span for plan in plans for raster in plan.rasters for span in (raster.ul, raster.dl)
             if span is not None] + [entry.gscn for plan in plans for entry in plan.sync_entries]
    return {
        Calibration: [load_calibration()],
        HostModel: list(hosts.values()),
        SdrModel: list(sdrs.values()),
        RasterSpan: spans,
        SyncRasterEntry: [entry for plan in plans for entry in plan.sync_entries],
        RegulatoryRule: [rule for jurisdiction in load_data("regulatory.json")["jurisdictions"]
                         for rule in load_regulatory_rules(jurisdiction)],
    }


@pytest.mark.parametrize("cls", [Calibration, HostModel, SdrModel, RasterSpan, SyncRasterEntry,
                                 RegulatoryRule], ids=lambda cls: cls.__name__)
def test_every_shipped_field_has_its_annotated_kind(cls):
    records = _shipped_records()[cls]
    assert records
    assert [bad for record in records for bad in _misfits(record)] == []


@pytest.mark.parametrize("value, hint, fits", [
    (40, float, False),
    (40.0, float, True),
    (True, int, False),
    (1, int, True),
    (None, float | None, True),
    ({15: 0.98}, dict[int, float], True),
    ({15: 1}, dict[int, float], False),
    (RasterSpan(1, 1, 3), RasterSpan, True),
    (RasterSpan(1.0, 1, 3), RasterSpan, False),
])
def test_kind_check_tells_int_from_float_and_bool(value, hint, fits):
    assert _fits(value, hint) is fits


def _frozen_yaml(name: str):
    """A table as the loaders read it before it was JSON: its YAML through ``yamlio.parse``."""
    text = (YAML_TABLES / name).with_suffix(".yaml").read_text(encoding="utf-8")
    return yamlio.parse(text)


def _every_jurisdiction_rules():
    # spectrum.load_data, so the jurisdictions listed come from the table under test too.
    return {jurisdiction: spectrum.load_regulatory_rules.__wrapped__(jurisdiction)
            for jurisdiction in spectrum.load_data("regulatory.json")["jurisdictions"]}


@pytest.mark.parametrize("module, build", [
    (spectrum, spectrum.load_band_plans.__wrapped__),
    (rflink, rflink.load_hardware_profiles.__wrapped__),
    (calibration, calibration.load_calibration.__wrapped__),
    (spectrum, _every_jurisdiction_rules),
], ids=["load_band_plans", "load_hardware_profiles", "load_calibration",
        "load_regulatory_rules"])
def test_json_tables_build_the_records_the_frozen_yaml_built(monkeypatch, module, build):
    records = build()
    monkeypatch.setattr(module, "load_data", _frozen_yaml)
    oracle = build()
    # repr also tells 1 from 1.0 and True from 1, which == does not.
    assert records == oracle and repr(records) == repr(oracle)
    assert records
