"""Single source of the package version."""

__version__ = "6.0.0"
