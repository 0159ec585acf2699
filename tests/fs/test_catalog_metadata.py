"""Unit tests for catalog operations and metadata validation."""

import pytest

from repro.core import FileCategory, FileOrganization
from repro.core.errors import FileExistsError_, FileNotFoundError_
from repro.fs import FileAttributes
from repro.fs.catalog import Catalog, CatalogEntry


def make_attrs(name="f", org=FileOrganization.PS):
    return FileAttributes(
        name=name,
        organization=org,
        category=FileCategory.STANDARD,
        record_size=8,
        records_per_block=4,
        n_records=40,
        n_processes=4,
        layout="clustered",
    )


def make_entry(name="f"):
    return CatalogEntry(attrs=make_attrs(name), extent=None, layout=None)


class TestCatalog:
    def test_add_get_remove(self):
        cat = Catalog()
        cat.add(make_entry("a"))
        assert "a" in cat and len(cat) == 1
        assert cat.get("a").attrs.name == "a"
        cat.remove("a")
        assert "a" not in cat

    def test_duplicate_add(self):
        cat = Catalog()
        cat.add(make_entry("a"))
        with pytest.raises(FileExistsError_):
            cat.add(make_entry("a"))

    def test_get_missing(self):
        with pytest.raises(FileNotFoundError_):
            Catalog().get("nope")

    def test_rename(self):
        cat = Catalog()
        cat.add(make_entry("old"))
        cat.rename("old", "new")
        assert cat.names() == ["new"]
        assert cat.get("new").attrs.name == "new"
        # rename is neither a create nor a delete
        assert cat.creates == 1 and cat.deletes == 0

    def test_rename_to_existing_rejected(self):
        cat = Catalog()
        cat.add(make_entry("a"))
        cat.add(make_entry("b"))
        with pytest.raises(FileExistsError_):
            cat.rename("a", "b")
        assert sorted(cat.names()) == ["a", "b"]

    def test_to_dict_metadata_only(self):
        cat = Catalog()
        cat.add(make_entry("a"))
        d = cat.to_dict()
        assert d["a"]["organization"] == "PS"


class TestFileAttributes:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            make_attrs(name="")

    def test_negative_records_rejected(self):
        kwargs = make_attrs().to_dict()
        kwargs["organization"] = FileOrganization(kwargs["organization"])
        kwargs["category"] = FileCategory(kwargs["category"])
        kwargs["n_records"] = -1
        with pytest.raises(ValueError):
            FileAttributes(**kwargs)

    def test_zero_processes_rejected(self):
        kwargs = make_attrs().to_dict()
        kwargs["organization"] = FileOrganization(kwargs["organization"])
        kwargs["category"] = FileCategory(kwargs["category"])
        kwargs["n_processes"] = 0
        with pytest.raises(ValueError):
            FileAttributes(**kwargs)

    def test_derived_properties(self):
        a = make_attrs()
        assert a.file_bytes == 40 * 8
        assert a.n_blocks == 10
        assert a.record_spec.record_size == 8
        assert a.block_spec.records_per_block == 4

    def test_dict_roundtrip_preserves_params(self):
        a = make_attrs()
        a.org_params = {"assignment": "interleaved"}
        a.layout_params = {"stripe_unit": 512}
        b = FileAttributes.from_dict(a.to_dict())
        assert b == a
