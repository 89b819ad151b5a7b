# list_chase: build a 32-node linked list (node i at 0x4000 + 48 * i,
# next pointer at +0, value 7 at +4), then walk it twice summing the
# values into a0 (expected 7 * 32 * 2 = 448).
#
# Load-to-load pointer chains that stress the memory system and
# speculative scheduling.
_start:
    li   t0, 32
    li   t1, 0x4000
    li   t3, 7
build:
    addi t2, t1, 48     # next node
    sw   t2, 0(t1)
    sw   t3, 4(t1)
    mv   t1, t2
    addi t0, t0, -1
    bnez t0, build
    li   t4, 0x45d0     # last node: 0x4000 + 48 * 31
    sw   zero, 0(t4)    # terminate the list

    li   a0, 0          # total
    li   t5, 2          # passes
pass:
    li   t1, 0x4000
chase:
    lw   t3, 4(t1)
    add  a0, a0, t3
    lw   t1, 0(t1)
    bnez t1, chase
    addi t5, t5, -1
    bnez t5, pass
    ebreak
