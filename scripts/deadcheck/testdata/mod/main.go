package main

import "example.com/fixture/lib"

func main() { println(lib.Used()) }
