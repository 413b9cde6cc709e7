module streamfloat/benchmark

go 1.22

require streamfloat v0.0.0

replace streamfloat => ../
