"""python -m egqft: the egqft command line."""
from .cli import main

if __name__ == "__main__":
    main()
