"""`python -m bktfit`: the same command line as the bktfit entry point."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
