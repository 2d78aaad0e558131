"""`python -m propcalc`: the `propcalc` command line."""

from .cli import main

if __name__ == "__main__":
    main()
