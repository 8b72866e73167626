"""Single source of the package version."""

__version__ = "4.0.0"
