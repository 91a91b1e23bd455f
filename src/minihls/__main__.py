"""`python -m minihls`: the command line, as the `minihls` script runs it."""
from .cli import entry_point

if __name__ == "__main__":
    raise SystemExit(entry_point())
