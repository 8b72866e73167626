"""Single source of the package version."""

__version__ = "1.9.0"
