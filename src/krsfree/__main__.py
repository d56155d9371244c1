"""`python -m krsfree`: the same command line as the `krsfree` script."""

from .cli import run

if __name__ == "__main__":
    run()
