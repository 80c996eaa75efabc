; negative: two paths reach .join with different stack depths.
	.text
	.global _start
_start:
	bz r4, .join
	nop
	subi r2, r2, 8
.join:
	trap 0          ; <- stack depths differ across joining paths
	nop
