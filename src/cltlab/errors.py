"""Shared exception machinery.

Every package error derives from ``LabError`` so the command line can map a
failure to a stable machine-readable code (the class name without the
``Error`` suffix) and a nonzero exit status.
"""


class LabError(Exception):
    """Base class for package errors."""

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name
