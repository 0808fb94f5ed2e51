"""python -m c4ramsey: the command line of c4ramsey.cli."""

from .cli import main

main()
