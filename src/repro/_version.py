"""Single source of the package version."""

__version__ = "9.0.0"
