"""REP008 fixture: undocumented public functions in a streaming module."""


def fold_chunks(chunks):
    return sum(1 for _ in chunks)


class ChunkSource:
    """A documented class whose public method lacks a docstring."""

    def open(self):
        return self

    def close(self):  # repro: noqa[REP008]
        return None

    def _rewind(self):
        return None


def documented(chunks):
    """Documented public functions are fine."""
    return list(chunks)


def outer():
    """Nested functions are implementation detail, not API."""
    def inner():
        return 1
    return inner()
