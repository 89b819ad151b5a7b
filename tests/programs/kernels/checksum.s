# checksum: fill 64 words at 0xb000 with data[i] = (i * 40503) & 0xffff,
# then fold them into a CRC-like rolling state in a0: s ^= d; shift s
# right by one and, if the bit shifted out was set, s ^= 0x2d5.
#
# Branchy bit manipulation around a tight recurrence.
_start:
    li   t0, 64
    li   t1, 0xb000
    li   t2, 0
    li   t3, 40503
    li   t6, 0xffff     # mask
fill:
    mul  t4, t2, t3
    and  t4, t4, t6
    sw   t4, 0(t1)
    addi t1, t1, 4
    addi t2, t2, 1
    addi t0, t0, -1
    bnez t0, fill

    li   t0, 64
    li   t1, 0xb000
    li   a0, 0x1d0f     # state
roll:
    lw   t4, 0(t1)
    xor  a0, a0, t4
    andi t5, a0, 1
    srli a0, a0, 1
    beqz t5, even
    xori a0, a0, 0x2d5
even:
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, roll
    ebreak
