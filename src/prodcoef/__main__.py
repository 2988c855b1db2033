from .cli import console_entry

console_entry()
