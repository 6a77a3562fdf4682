"""``python -m keyhole_harq``: the command line front end (see ``cli``)."""

from .cli import run

if __name__ == "__main__":
    run()
