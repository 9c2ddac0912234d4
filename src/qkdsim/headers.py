"""Wire sizes of the QKD header and the QKD command header.

Only their byte counts enter the simulation: a data or signaling packet
carries both headers (36 bytes), a DV update or hello only the QKD header.
The routing state (recovery indicator, loop indicator, recovery interface
and position) travels inside these two headers rather than in a separate one.
"""

QKD_HEADER_BYTES = 28
COMMAND_HEADER_BYTES = 8
HEADER_OVERHEAD_BYTES = QKD_HEADER_BYTES + COMMAND_HEADER_BYTES
