"""Single source of the package version."""

__version__ = "1.10.0"
