"""Regression: Catalog.rename must never expose a lost-name window.

The old implementation removed the entry under the old name and then
re-inserted it under the new one; between the two steps a concurrent
lookup saw *neither* name. The fixed rename inserts the new name first
and only then drops the old, so at every intermediate state at least
one of the two names resolves.
"""

import pytest

from repro.core.errors import FileExistsError_, FileNotFoundError_
from repro.fs.catalog import Catalog
from repro.metastore.harness import make_entry


class ObservedDict(dict):
    """Dict that checks a namespace invariant after every mutation."""

    def __init__(self, *args, watch=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.watch = watch
        self.violations = []

    def _check(self):
        if self.watch and not any(name in self for name in self.watch):
            self.violations.append(sorted(self))

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self._check()

    def __delitem__(self, key):
        super().__delitem__(key)
        self._check()

    def pop(self, key, *default):
        out = super().pop(key, *default)
        self._check()
        return out


class TestRenameAtomicity:
    def test_rename_never_loses_the_name(self):
        """At every intermediate state, old or new must resolve.

        This fails against the remove-then-reinsert implementation: the
        observer sees a state where neither name is in the catalog.
        """
        cat = Catalog()
        cat.add(make_entry("a"))
        cat._entries = ObservedDict(cat._entries, watch=("a", "b"))
        cat.rename("a", "b")
        assert cat._entries.violations == []
        assert "b" in cat and "a" not in cat
        assert cat.get("b").attrs.name == "b"

    def test_rename_preserves_counters(self):
        cat = Catalog()
        cat.add(make_entry("a"))
        creates, deletes = cat.creates, cat.deletes
        cat.rename("a", "b")
        # a rename is neither a create nor a delete
        assert (cat.creates, cat.deletes) == (creates, deletes)

    def test_rename_to_existing_name_refused(self):
        cat = Catalog()
        cat.add(make_entry("a"))
        cat.add(make_entry("b"))
        with pytest.raises(FileExistsError_):
            cat.rename("a", "b")
        # refused rename left both entries untouched
        assert "a" in cat and "b" in cat
        assert cat.get("a").attrs.name == "a"

    def test_rename_missing_source_refused(self):
        cat = Catalog()
        with pytest.raises(FileNotFoundError_):
            cat.rename("nope", "b")
        assert "b" not in cat

    def test_errors_are_importable_from_core(self):
        """The shared error vocabulary lives in core.errors, exported by
        repro.core and not by repro.fs."""
        import repro.core as core
        import repro.core.errors as core_errors
        import repro.fs as fs

        assert core.FileExistsError_ is core_errors.FileExistsError_
        assert core.FileNotFoundError_ is core_errors.FileNotFoundError_
        assert not {"FileExistsError_", "FileNotFoundError_"} & set(fs.__all__)
        from repro.core.errors import ReproError

        assert issubclass(core_errors.FileExistsError_, ReproError)
        assert issubclass(core_errors.FileNotFoundError_, ReproError)
