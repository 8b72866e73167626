"""Single source of the package version."""

__version__ = "4.1.0"
