"""Exception types shared across the toolkit, which the CLI maps onto exit
codes (ValueError 1, DataError 2, NumericError 3), and the two argument
rules every trainer shares, named by flag: sizes >= 1 and odd windows.
"""


class EmbkitError(Exception):
    pass


class DataError(EmbkitError):
    """Malformed or inconsistent input data (files, datasets, vocabularies)."""


class NumericError(EmbkitError):
    """Non-finite values or otherwise unusable numerical state."""


def check_sizes(**sizes):
    """Refuse any named size below 1; None stands for a size not in use."""
    for name, value in sizes.items():
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1")


def check_window(win, least: int = 1, name: str = "win"):
    """Refuse a window width that is even or below `least`."""
    if win % 2 == 0 or win < least:
        raise ValueError(f"--{name.replace('_', '-')} must be odd and >= {least}")
