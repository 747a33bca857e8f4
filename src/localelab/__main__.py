"""Run the command line as `python -m localelab`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
