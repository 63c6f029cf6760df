"""python -m arndt: the arndt command line, as arndt.cli.entry runs it."""
from .cli import entry
entry()
