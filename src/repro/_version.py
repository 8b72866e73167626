"""Single source of the package version."""

__version__ = "5.0.0"
