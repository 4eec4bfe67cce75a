module apollo/benchmark

go 1.22

require apollo v0.0.0

replace apollo => ../
