"""``python -m disknorms``: the same command line as the ``disknorms`` script."""

from .cli import run

if __name__ == "__main__":
    run()
